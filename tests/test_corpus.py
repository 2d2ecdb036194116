"""Hierarchy model, ancestor resolution, validation, and serialization."""

import json
import random
import struct
import tempfile
from contextlib import contextmanager
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrr.corpus as corpus_module
from hrr.chunking import ChunkingConfig, build_corpus
from hrr.config import EngineConfig, PathsConfig
from hrr.corpus import (
    HIERARCHY_LEVELS,
    ChunkNode,
    Corpus,
    Level,
    load_artifacts,
    load_corpus,
    resolve_parent,
    save_corpus,
    validate_corpus,
)
from hrr.embedding import HashedBowEmbedder
from hrr.engine import context_for, ingest, load_context
from hrr.errors import (
    InvalidCorpusError,
    LevelViolationError,
    SnapshotFormatError,
    UnknownChunkError,
)
from hrr.index import build_index
from hrr.rerank import TOKEN_SET_CACHE_SIZE, LexicalOverlapReranker
from hrr.synth import CorpusSpec, generate
from hrr.tokens import WordPunctTokenizer

import reference_text
from level_corpus import level_corpus
from node_table import corpus_of, table_of
from reads import level_ids, nodes_of

CFG = ChunkingConfig(parent_size=24, intermediate_size=10, sub_intermediate_size=5)


@pytest.fixture(scope="module")
def corpus():
    docs = {
        "a": "One two three four. Five six seven eight. Nine ten eleven. Twelve thirteen fourteen.",
        "b": "Short doc here. Another line follows. And a third one.",
    }
    return build_corpus(docs, CFG)


def _node(corpus, level, idx=0):
    return nodes_of(corpus, level)[idx]


class TestResolveParent:
    def test_sentence_to_parent(self, corpus):
        sentence = _node(corpus, Level.SENTENCE)
        inter = resolve_parent(corpus, sentence.id, Level.INTERMEDIATE)
        parent = resolve_parent(corpus, sentence.id, Level.PARENT)
        assert corpus.get(inter).level is Level.INTERMEDIATE
        assert corpus.get(parent).level is Level.PARENT
        # two hops agree with one
        assert resolve_parent(corpus, inter, Level.PARENT) == parent

    def test_identity(self, corpus):
        parent = _node(corpus, Level.PARENT)
        assert resolve_parent(corpus, parent.id, Level.PARENT) == parent.id

    def test_downward_is_violation(self, corpus):
        inter = _node(corpus, Level.INTERMEDIATE)
        with pytest.raises(LevelViolationError):
            resolve_parent(corpus, inter.id, Level.SENTENCE)

    def test_unknown_chunk(self, corpus):
        with pytest.raises(UnknownChunkError):
            resolve_parent(corpus, "nope:p0", Level.PARENT)

    def test_sub_chunk_to_parent(self, corpus):
        sub = nodes_of(corpus, Level.SUB_INTERMEDIATE)[0]
        parent = resolve_parent(corpus, sub.id, Level.PARENT)
        assert corpus.get(parent).level is Level.PARENT

    def test_sentence_cannot_reach_sub_tier(self, corpus):
        sentence = _node(corpus, Level.SENTENCE)
        with pytest.raises(LevelViolationError):
            resolve_parent(corpus, sentence.id, Level.SUB_INTERMEDIATE)

    @pytest.mark.parametrize("level, target", [(Level.SENTENCE, Level.SUB_INTERMEDIATE),
                                               (Level.INTERMEDIATE, Level.SENTENCE),
                                               (Level.SUB_INTERMEDIATE, Level.SENTENCE)])
    def test_violation_names_the_chunks_own_level(self, corpus, level, target):
        chunk_id = _node(corpus, level).id
        with pytest.raises(LevelViolationError) as exc:
            resolve_parent(corpus, chunk_id, target)
        assert str(exc.value) == (
            f"{chunk_id!r} ({level.value}) has no ancestor at {target.value!r}"
        )

    def test_two_hop_equals_one_hop_for_all_sentences(self, corpus):
        for node in nodes_of(corpus, Level.SENTENCE):
            via = resolve_parent(
                corpus, resolve_parent(corpus, node.id, Level.INTERMEDIATE), Level.PARENT
            )
            assert via == resolve_parent(corpus, node.id, Level.PARENT)

    @pytest.mark.parametrize("level, target", [(Level.SENTENCE, Level.INTERMEDIATE),
                                               (Level.SENTENCE, Level.PARENT),
                                               (Level.SUB_INTERMEDIATE, Level.PARENT),
                                               (Level.PARENT, Level.PARENT)])
    def test_ancestor_rows_walk_parent_ids(self, corpus, level, target):
        """``ancestor_rows`` maps a whole level's rows at once, in their
        order, to the ancestors the nodes' parent ids walk to."""
        rows = corpus.rows_at(level)[::-1].tolist()
        expected = []
        for chunk_id in corpus.ids_of(rows):
            node = corpus.get(chunk_id)
            while node.level is not target:
                node = corpus.get(node.parent_id)
            expected.append(node.id)
        assert list(corpus.ids_of(corpus.ancestor_rows(rows, target))) == expected

    def test_ancestor_rows_name_the_first_row_without_one(self, corpus):
        rows = np.concatenate([corpus.rows_at(Level.SENTENCE)[:2],
                               corpus.rows_at(Level.SUB_INTERMEDIATE)[::-1]]).tolist()
        first = next(corpus.ids_of(rows[2:]))
        with pytest.raises(LevelViolationError, match=(
                f"^{first!r} \\(sub_intermediate\\) has no ancestor at 'sentence'$")):
            corpus.ancestor_rows(rows, Level.SENTENCE)


def _scan_parent_at(corpus, doc_id, byte):
    """Reference: the first parent of the document whose span holds ``byte``."""
    for node in nodes_of(corpus, Level.PARENT):
        if node.doc_id == doc_id and node.char_span[0] <= byte < node.char_span[1]:
            return node.id
    return None


class TestParentAt:
    DOCS = {
        "ascii": " ".join(
            f"Sentence {i} has {'some ' * (i % 5)}words in it." for i in range(40)
        ),
        "multibyte": " ".join(f"Été {i} brûle ça {'déjà ' * (i % 4)}fini." for i in range(30)),
    }

    @pytest.mark.parametrize(
        "config",
        [
            ChunkingConfig(parent_size=24, intermediate_size=10, sub_intermediate_size=None),
            ChunkingConfig(parent_size=40, parent_overlap=15, intermediate_size=12,
                           intermediate_overlap=5, sub_intermediate_size=None),
            ChunkingConfig(parent_size=30, parent_overlap=29, intermediate_size=8,
                           sub_intermediate_size=None),
        ],
    )
    def test_matches_linear_scan_at_every_byte(self, config):
        corpus = build_corpus(self.DOCS, config)
        for doc_id in (*self.DOCS, "unknown"):
            size = len(corpus.documents.get(doc_id, b""))
            for byte in range(-2, size + 3):
                assert corpus.parent_at(doc_id, byte) == _scan_parent_at(corpus, doc_id, byte)

    def test_overlap_byte_belongs_to_earlier_parent(self):
        config = ChunkingConfig(parent_size=40, parent_overlap=15, intermediate_size=12,
                                sub_intermediate_size=None)
        corpus = build_corpus(self.DOCS, config)
        p0, p1 = [n for n in nodes_of(corpus, Level.PARENT) if n.doc_id == "ascii"][:2]
        assert p1.char_span[0] < p0.char_span[1]  # the spans really overlap
        assert corpus.parent_at("ascii", p1.char_span[0]) == p0.id


class TestValidateCorpus:
    def test_chunker_output_is_clean(self, corpus):
        assert validate_corpus(corpus) == []

    def test_pure_function(self, corpus):
        assert validate_corpus(corpus) == validate_corpus(corpus)

    # Structure is refused when a corpus is constructed, so the structural
    # cases below never reach ``validate_corpus``.

    def test_hierarchy_skip(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p0", (0, 10), 2),
            # sentence wired straight to the parent-level node
            ChunkNode("d:p0.i0.s0", Level.SENTENCE, "d", "d:p0", (0, 10), 2),
        ]
        with pytest.raises(InvalidCorpusError, match="node at row 2: its parent is not at"):
            corpus_of(doc, nodes, CFG)

    def test_split_run(self):
        """Document ``d``'s parents in two runs of rows: their ordinals, and
        so their ids, are not defined, and the second run is named."""
        doc = {"d": "alpha beta", "e": "gamma"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 6), 1),
            ChunkNode("e:p0", Level.PARENT, "e", None, (0, 5), 1),
            ChunkNode("d:p1", Level.PARENT, "d", None, (6, 10), 1),
        ]
        with pytest.raises(InvalidCorpusError, match="node at row 2: it starts a second run of "
                                                     "rows of its owner's children at its level"):
            corpus_of(doc, nodes, CFG)

    def test_dangling_parent(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p9", (0, 10), 2),
        ]
        with pytest.raises(InvalidCorpusError, match="node at row 1: its parent row is not"):
            corpus_of(doc, nodes, CFG)

    def test_budget_and_drift(self):
        doc = {"d": "one two three four five six seven eight nine ten eleven twelve"}
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, len(doc["d"])), 3)]
        bad = corpus_of(doc, nodes, ChunkingConfig(parent_size=5, intermediate_size=2))
        rules = [v.rule for v in validate_corpus(bad)]
        assert "TokenCountDrift" in rules and "BudgetExceeded" in rules

    # The tiling rules are structure too: at overlap 0 a corpus that breaks
    # them is refused when constructed; with overlap they do not apply.
    OVERLAP = ChunkingConfig(parent_size=24, parent_overlap=4, intermediate_size=10,
                             intermediate_overlap=2, sub_intermediate_size=5)

    def test_coverage_gap(self):
        doc = {"d": "abcdef ghijkl"}
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 6), 1)]
        with pytest.raises(InvalidCorpusError, match="'d:p0': its span is the last under its "
                                                     "owner but does not end where the owner"):
            corpus_of(doc, nodes, CFG)
        assert validate_corpus(corpus_of(doc, nodes, self.OVERLAP)) == []

    def test_span_out_of_bounds(self):
        doc = {"d": "tiny"}
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 99), 1)]
        with pytest.raises(InvalidCorpusError, match="'d:p0': its span"):
            corpus_of(doc, nodes, CFG)


    # "alpha beta gamma delta": one parent, intermediate and sentence over the
    # whole 22-byte, 4-token document, plus a side tier under the intermediate.
    SIDE_DOC = {"d": "alpha beta gamma delta"}

    def _side_corpus(self, *side_nodes, config=CFG):
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 22), 4),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p0", (0, 22), 4),
            ChunkNode("d:p0.i0.s0", Level.SENTENCE, "d", "d:p0.i0", (0, 22), 4),
            *side_nodes,
        ]
        return corpus_of(self.SIDE_DOC, nodes, config)

    def test_clean_side_tier(self):
        good = self._side_corpus(
            ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 11), 2),
            ChunkNode("d:p0.i0.c1", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (11, 22), 2),
        )
        assert validate_corpus(good) == []

    def test_side_tier_linked_to_parent(self):
        with pytest.raises(InvalidCorpusError, match="node at row 3: its parent is not at"):
            self._side_corpus(
                ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0", (0, 22), 4),
            )

    def test_side_tier_gap(self):
        side = (ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 11), 2),
                ChunkNode("d:p0.i0.c1", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (17, 22), 1))
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0.c1': a gap comes before its span"):
            self._side_corpus(*side)
        assert validate_corpus(self._side_corpus(*side, config=self.OVERLAP)) == []

    def test_side_tier_token_sum(self):
        # The cut falls inside "beta", so the two pieces hold 2 + 3 tokens.
        side = (ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 8), 2),
                ChunkNode("d:p0.i0.c1", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (8, 22), 3))
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0': its children at one level do "
                                                     "not sum to its token count"):
            self._side_corpus(*side)
        assert validate_corpus(self._side_corpus(*side, config=self.OVERLAP)) == []

    def test_recount_runs_where_the_tiling_rules_do_not(self):
        """With overlap, a side tier that breaks the tiling constructs, and
        the recount still reports a stored count its text does not hold."""
        bad = self._side_corpus(
            ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 11), 3),
            config=self.OVERLAP,
        )
        violations = validate_corpus(bad)
        assert [(v.rule, v.chunk_id) for v in violations] == [("TokenCountDrift", "d:p0.i0.c0")]

    def test_no_rows_validate_clean(self):
        assert validate_corpus(corpus_of({}, [], CFG)) == []
        assert validate_corpus(corpus_of({"d": "no chunk of mine"}, [], self.OVERLAP)) == []

    #: Multibyte, astral and case-changing words in sentences longer than
    #: ``max_sentence_tokens``; the documents end in a word, so a document's
    #: last rows end in one where the next document's first row begins.
    MIXED_DOCS = {
        "a": " ".join(f"Ünïcode wörds{i} İstanbul ΣΟΦΙΑ straße 𝔞𝔟{i} 東京 naïve-café ok{i}."
                      for i in range(12)) + " Σ",
        "b": " ".join(f"Alpha beta{i} gamma delta epsilon zeta eta theta iota {i}!"
                      for i in range(10)) + " end",
        "c": "Tiny tail",
    }

    @pytest.mark.parametrize("bound", [1, 60, 400, 1 << 18])
    def test_equals_the_per_row_loop(self, monkeypatch, bound):
        """Planted drifts and budget overruns, in batches of ``bound``
        bytes, give the per-row loop's violations: rules, order, messages."""
        cut = ChunkingConfig(parent_size=40, parent_overlap=6, intermediate_size=12,
                             intermediate_overlap=3, sub_intermediate_size=6,
                             max_sentence_tokens=5)
        rng = random.Random(bound)
        nodes = [replace(node, token_count=max(0, node.token_count + rng.choice((-1, 1, 2))))
                 if rng.random() < 0.2 else node
                 for node in nodes_of(build_corpus(self.MIXED_DOCS, cut))]
        # Budgets below the ones cut to, so some nodes exceed them as well.
        tight = replace(cut, parent_size=30, intermediate_size=9, sub_intermediate_size=4)
        corpus = corpus_of(self.MIXED_DOCS, nodes, tight)
        batches = []
        count_each = WordPunctTokenizer.count_each

        def recorded(self, texts):
            batches.append(list(texts))
            return count_each(self, texts)

        monkeypatch.setattr(WordPunctTokenizer, "count_each", recorded)
        monkeypatch.setattr(corpus_module, "_RECOUNT_BYTES", bound)
        violations = validate_corpus(corpus)
        monkeypatch.undo()
        assert violations == reference_text.reference_validate(corpus)
        assert {v.rule for v in violations} == {"TokenCountDrift", "BudgetExceeded"}
        # Some node both drifts and exceeds its budget.
        assert len({v.chunk_id for v in violations}) < len(violations)
        texts = [text for batch in batches for text in batch]
        assert texts == list(corpus.texts_of(range(len(corpus))))
        assert any(a[-1:].isalnum() and b[:1].isalnum() for a, b in zip(texts, texts[1:]))
        for batch in batches:
            assert len(batch) == 1 or len("".join(batch).encode("utf-8")) <= bound
        if bound < 1 << 18:
            # The violations straddle batches.
            first_rows = np.cumsum([0] + [len(batch) for batch in batches])
            ids = list(corpus.ids_of(np.arange(len(corpus))))
            rows = [ids.index(v.chunk_id) for v in violations]
            assert len(set(np.searchsorted(first_rows, rows, "right"))) > 1
        else:
            assert len(batches) == 1


class TestIdsParsed:
    """An id is found by parsing it and walking down the tree, so only the
    spelling the corpus derives is found: ordinals in canonical ASCII
    decimal, each under its level's letter, within its owner's children."""

    # Sentences of 2 tokens: 12 to a parent, 5 to an intermediate and 2 to
    # a side-tier chunk.
    DOCS = {"doc": " ".join(f"W{i}." for i in range(200))}

    @pytest.fixture(scope="class")
    def tree(self):
        return build_corpus(self.DOCS, CFG)

    def _not_found(self, corpus, chunk_id):
        assert chunk_id not in corpus and chunk_id not in corpus.chunks
        with pytest.raises(UnknownChunkError, match="no chunk"):
            corpus.get(chunk_id)
        with pytest.raises(UnknownChunkError):
            corpus.chunk_text(chunk_id)
        assert corpus.parent_doc(chunk_id) is None

    def test_non_canonical_spellings_are_not_found(self, tree):
        assert "doc:p1" in tree and "doc:p0.i0" in tree
        # ``int()`` reads "1_0" as 10 and "١" (Arabic-Indic one) as 1.
        assert int("1_0") == 10 and int("١") == 1 and "doc:p10" in tree
        for chunk_id in ("doc:p01", "doc:p+1", "doc:p1_0", "doc:p١", "doc:p1 ", " doc:p1",
                         "doc:p0.i0.", "doc:p0..i0", "doc:p", "doc:", "doc", "doc:i0",
                         "doc:p0.s0", "doc:p0.i0.i0", "doc:P1", "doc:p-0", "doc:p1e0",
                         "doc:p" + "9" * 5000, "other:p0", "doc:p0:p0", ""):
            self._not_found(tree, chunk_id)

    def test_a_sentence_path_under_the_side_tier_letter_is_not_found(self, tree):
        sentences = [chunk_id for chunk_id in level_ids(tree, Level.SENTENCE)
                     if chunk_id.startswith("doc:p0.i0.")]
        sides = [chunk_id for chunk_id in level_ids(tree, Level.SUB_INTERMEDIATE)
                 if chunk_id.startswith("doc:p0.i0.")]
        assert len(sentences) > len(sides)
        self._not_found(tree, sentences[-1].replace(".s", ".c"))
        assert sides[-1].replace(".c", ".s") in tree

    def test_an_ordinal_one_past_the_owners_last_child_is_not_found(self, tree):
        for level in Level:
            last = level_ids(tree, level)[-1]  # its owner's last child
            head = last.rstrip("0123456789")
            assert last in tree
            self._not_found(tree, head + str(int(last[len(head):]) + 1))

    @pytest.mark.parametrize("doc_ids", [
        ["a", "a:", "a:b", "a.b", "é:ü", "a:p0", "a:p0.i0", "", ":", "日本"],
        ["x", "x:p1", "x:p10", "x0", "x:"],
    ], ids=["colons-dots-non-ascii", "prefixes"])
    def test_every_id_round_trips_through_get(self, doc_ids, tmp_path):
        documents = {doc_id: self.DOCS["doc"][: 80 + 40 * n] + "."
                     for n, doc_id in enumerate(doc_ids)}
        save_corpus(build_corpus(documents, CFG), tmp_path)
        corpus = load_corpus(tmp_path)
        ids = list(corpus.ids_of(range(len(corpus))))
        assert len(set(ids)) == len(ids)
        for row, chunk_id in enumerate(ids):
            node = corpus.get(chunk_id)
            assert node.id == chunk_id and chunk_id in corpus
            assert node == corpus._node(row)
            assert corpus.chunks[chunk_id] == node
            assert corpus.parent_doc(chunk_id) == (
                node.doc_id if node.level is Level.PARENT else None)
            digits = chunk_id[len(chunk_id.rstrip("0123456789")):]
            assert chunk_id[: -len(digits)] + "0" + digits not in corpus


class TestRoundTrip:
    def test_parents_reassemble_document(self, corpus):
        for doc_id, data in corpus.documents.items():
            parents = [
                n for n in nodes_of(corpus, Level.PARENT) if n.doc_id == doc_id
            ]
            joined = b"".join(data[n.char_span[0] : n.char_span[1]] for n in parents)
            assert joined == data

    def test_multibyte_spans_decode(self):
        docs = {"u": "Überall läuft code. Çok güzel çalışıyor. Ça va très bien."}
        c = build_corpus(docs, CFG)
        assert validate_corpus(c) == []
        for node in nodes_of(c):
            assert c.chunk_text(node.id)  # every span decodes cleanly


class TestSerialization:
    def test_round_trip(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded.documents == corpus.documents
        assert nodes_of(loaded) == nodes_of(corpus)
        assert nodes_of(loaded, Level.SUB_INTERMEDIATE) == nodes_of(corpus, Level.SUB_INTERMEDIATE)
        assert loaded.config == corpus.config
        assert validate_corpus(loaded) == []

    def test_rewrite_is_byte_identical(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path / "one")
        save_corpus(corpus, tmp_path / "two")
        assert (tmp_path / "one" / "nodes.bin").read_bytes() == (
            tmp_path / "two" / "nodes.bin"
        ).read_bytes()

    def test_save_leaves_no_temporary_file(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        save_corpus(corpus, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.bin"]

    def test_failed_save_keeps_the_earlier_corpus(self, tmp_path, monkeypatch):
        """A save that fails while writing ``nodes.bin`` leaves the earlier
        corpus whole: its texts, not the new ones under its spans."""
        before = build_corpus({"a": "Omega alpha beta. Gamma delta epsilon. Theta kappa."}, CFG)
        after = build_corpus({"a": "Omega alpha beta. Gamma delta epsilon. Theta kappa mu."}, CFG)
        save_corpus(before, tmp_path)
        written = (tmp_path / "nodes.bin").read_bytes()
        replacing = corpus_module.replacing

        @contextmanager
        def failing(path):
            with replacing(path) as fh:
                if Path(path).name == "nodes.bin":
                    fh.write(NODE_MAGIC)
                    raise OSError("disk full")
                yield fh

        monkeypatch.setattr(corpus_module, "replacing", failing)
        with pytest.raises(OSError, match="disk full"):
            save_corpus(after, tmp_path)
        monkeypatch.undo()
        loaded = load_corpus(tmp_path)
        assert loaded.documents == before.documents
        parents = level_ids(before, Level.PARENT)
        assert [loaded.chunk_text(i) for i in parents] == [before.chunk_text(i) for i in parents]
        assert (tmp_path / "nodes.bin").read_bytes() == written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.bin"]

    def test_a_save_stopped_after_any_block_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        """A save stopped after any number of the blocks it writes, of the
        corpus, of a level's vectors or of the footer, leaves the earlier
        file byte for byte, so it loads the earlier corpus and vectors."""
        embedder = HashedBowEmbedder(dimension=64)

        def save(text):
            corpus = build_corpus({"a": text}, CFG)
            indexes = (build_index(corpus, level, embedder) for level in corpus.levels)
            save_corpus(corpus, tmp_path, indexes, embedder)

        save("Omega alpha beta. Gamma delta epsilon. Theta kappa.")
        written = (tmp_path / "nodes.bin").read_bytes()
        replacing = corpus_module.replacing

        class Stopping:
            """A file that takes ``blocks`` blocks, then fails."""

            def __init__(self, fh, blocks):
                self._fh, self._left = fh, blocks

            def writelines(self, blocks):
                for block in blocks:
                    if self._left == 0:
                        raise OSError(28, "No space left on device")
                    self._left -= 1
                    self._fh.write(block)

        for blocks in range(1, 100):
            @contextmanager
            def stopping(path, blocks=blocks):
                with replacing(path) as fh:
                    yield Stopping(fh, blocks)

            monkeypatch.setattr(corpus_module, "replacing", stopping)
            try:
                save("Omega alpha beta. Gamma delta epsilon. Theta kappa mu.")
            except OSError:
                assert (tmp_path / "nodes.bin").read_bytes() == written, blocks
                assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.bin"]
                continue
            break
        # The first save to finish wrote every block: the magic, header
        # length and header, 7 columns and the one document; the one-chunk
        # parent level's dense matrix, 3 arrays of each CSR level; the
        # footer, its length and its magic.
        assert blocks == 3 + 7 + 1 + 1 + 3 * 3 + 3
        assert load_artifacts(tmp_path, embedder)[0].documents["a"].endswith(b"mu.")

    def test_bad_header_rejected(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        nodes = _read_nodes(tmp_path / "nodes.bin")
        nodes.header["version"] = 9
        _write_nodes(tmp_path / "nodes.bin", nodes)
        with pytest.raises(SnapshotFormatError, match="version 9"):
            load_corpus(tmp_path)

    def test_retired_line_format_asks_for_reingest(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        (tmp_path / "nodes.bin").rename(tmp_path / "chunks.jsonl")
        with pytest.raises(SnapshotFormatError, match="chunks.jsonl: corpus format v1"):
            load_corpus(tmp_path)
        save_corpus(corpus, tmp_path)  # a re-ingest replaces it
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.bin"]

    def test_v2_directory_asks_for_reingest(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        write_v2_corpus(tmp_path)
        with pytest.raises(SnapshotFormatError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == (
            f"{tmp_path / 'nodes.bin'}: corpus format version 2 is not read; re-run ingest"
        )
        save_corpus(corpus, tmp_path)  # a re-ingest replaces both files with one
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.bin"]
        assert load_corpus(tmp_path).documents == corpus.documents

    def test_v3_file_asks_for_reingest(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        write_v3_corpus(tmp_path)
        with pytest.raises(SnapshotFormatError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == (
            f"{tmp_path / 'nodes.bin'}: corpus format version 3 is not read; re-run ingest"
        )

    def test_file_stores_no_id_table(self, corpus, tmp_path):
        """The columns and the documents fill the corpus's part of the file:
        every id is derived, here as ``NodeFile.id_list`` derives it."""
        save_corpus(corpus, tmp_path)
        nodes = _read_nodes(tmp_path / "nodes.bin")
        assert nodes.header["version"] == 6 and "ids_bytes" not in nodes.header
        assert nodes.id_list() == [node.id for node in nodes_of(corpus)]
        _write_nodes(tmp_path / "nodes.bin", nodes)
        assert nodes_of(load_corpus(tmp_path)) == nodes_of(corpus)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_corpora_of_few_nodes_round_trip(self, tmp_path, rows):
        """A corpus of no node, or of parents alone, saves and loads back."""
        documents = {"d": b"alpha beta"}
        columns = [[0] * rows, [0] * rows, [-1] * rows, [0] * rows, [10] * rows, [2] * rows,
                   [0] * rows]
        built = Corpus(documents, columns, config=replace(CFG, parent_overlap=1),
                       tokenizer_name="word-punct")
        save_corpus(built, tmp_path)
        loaded = load_corpus(tmp_path)
        assert nodes_of(loaded) == nodes_of(built) and len(loaded) == rows
        assert [node.id for node in nodes_of(loaded)] == ["d:p0", "d:p1"][:rows]

    @pytest.mark.parametrize("column, values", [("hard_split", []), ("token_count", [2, 5])],
                             ids=["short", "long"])
    def test_column_of_another_length_refused(self, column, values):
        """Each column holds one value per row of the level column: with a
        short column ``get`` would fail on the missing value, and a long one
        would be saved as a file that does not load."""
        columns = {"level": [0], "doc": [0], "parent": [-1], "start": [0], "end": [10],
                   "token_count": [2], "hard_split": [0], column: values}
        with pytest.raises(InvalidCorpusError) as exc:
            Corpus({"d": b"alpha beta"}, list(columns.values()), config=CFG,
                   tokenizer_name="word-punct")
        assert str(exc.value) == (
            f"the {column} column holds {len(values)} values, the level column 1")

    def test_unsaveable_corpus_refused(self):
        """A corpus that could not be saved is not constructed."""
        doc = {"d": "alpha beta"}
        with pytest.raises(InvalidCorpusError, match="node at row 0: its parent row"):
            corpus_of(doc, [ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p9", (0, 10), 2)],
                      CFG)


#: The node file (corpus format v6), spelled out apart from ``hrr.corpus``:
#: the magic, the header's length (``<I``) and the JSON header, whose sizes
#: give the blocks that follow: these columns, each stored at the unsigned
#: width the header's ``columns`` names (the parent column as the parent's
#: row plus 1, 0 for none), then each document's UTF-8 bytes. No chunk id
#: is stored (``NodeFile.id_list`` derives them). An ingest's file goes on
#: with its levels' vectors, kept here as one run of bytes
#: (``level_blocks`` splits it), and their footer: the JSON footer, its
#: length and ``VECTORS_MAGIC``.
NODE_MAGIC = b"HRRNODE\n"
VECTORS_MAGIC = b"HRRVEC1\n"
NODE_COLUMNS = ("level", "doc", "parent", "start", "end", "token_count", "hard_split")
#: The widths an integer block may be stored at, narrowest first.
WIDTHS = ("u1", "<u2", "<u4", "<u8")


def narrowest(values) -> str:
    """The narrowest of ``WIDTHS`` holding the largest of ``values``."""
    top = max(values, default=0)
    return next(width for width in WIDTHS if top < 256 ** np.dtype(width).itemsize)


@dataclass
class NodeFile:
    header: dict
    #: Each column's values as int64, the parent column as rows, -1 for none.
    columns: dict[str, np.ndarray]
    documents: list[bytes]
    #: The levels' blocks and the footer, of a file that stores vectors.
    vectors: bytes = b""
    footer: dict | None = None
    #: The id table of format v5 and earlier, between the columns and the
    #: documents; v6 stores none.
    ids: bytes = b""

    def id_list(self) -> list[str]:
        """Each row's chunk id, one row at a time: its owner's id and ``.``
        (``doc_id:`` for a parent chunk), the level's letter, and how many
        earlier rows share its owner and level."""
        ids, seen = [], Counter()
        columns = zip(*(self.columns[name].tolist() for name in ("level", "doc", "parent")))
        for level, doc, parent in columns:
            owner = f"{self.header['documents'][doc]}:" if parent < 0 else f"{ids[parent]}."
            ids.append(f"{owner}{'pisc'[level]}{seen[owner, level]}")
            seen[owner, level] += 1
        return ids


def _read_nodes(path) -> NodeFile:
    data = Path(path).read_bytes()
    assert data[:8] == NODE_MAGIC
    (length,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + length])
    widths = [header["columns"][name] for name in NODE_COLUMNS]
    sizes = [header["count"] * np.dtype(width).itemsize for width in widths]
    blocks, rest = [], data[12 + length :]
    for n in [*sizes, *header["document_bytes"]]:
        blocks.append(rest[:n])
        rest = rest[n:]
    columns = {name: np.frombuffer(block, width).astype(np.int64)
               for name, width, block in zip(NODE_COLUMNS, widths, blocks)}
    columns["parent"] -= 1
    documents = blocks[len(NODE_COLUMNS):]
    footer = None
    if rest:
        assert rest[-8:] == VECTORS_MAGIC
        (length,) = struct.unpack("<I", rest[-12:-8])
        footer = json.loads(rest[-12 - length : -12])
        rest = rest[: -12 - length]
    return NodeFile(header, columns, documents, rest, footer)


def _write_nodes(path, nodes: NodeFile, *, magic=NODE_MAGIC, widths=None):
    """Write ``nodes``, each column at the narrowest width that holds its
    values, or at the one ``widths`` names for it; a value below 0 wraps
    around as ``astype`` wraps it."""
    stored = {name: nodes.columns[name] + (name == "parent") for name in NODE_COLUMNS}
    chosen = {name: narrowest(values.tolist()) for name, values in stored.items()}
    chosen.update(widths or {})
    nodes.header["columns"] = chosen
    header = json.dumps(nodes.header, sort_keys=True).encode("ascii")
    columns = [stored[name].astype(chosen[name]).tobytes() for name in NODE_COLUMNS]
    parts = [magic, struct.pack("<I", len(header)), header, *columns, nodes.ids,
             *nodes.documents, nodes.vectors]
    if nodes.footer is not None:
        footer = json.dumps(nodes.footer, sort_keys=True).encode("ascii")
        parts += [footer, struct.pack("<I", len(footer)), VECTORS_MAGIC]
    Path(path).write_bytes(b"".join(parts))


def level_dtypes(entry: dict, dimension: int) -> list[tuple[str, int]]:
    """Each block of a footer ``entry``'s level, at the file's
    ``dimension``: its dtype and its length. A dense level stores its rows,
    one after another; a CSR level its row lengths, its ``<u2`` columns,
    then its counts or, without a ``counts`` dtype, its ``<f4`` values."""
    if entry["layout"] == "dense":
        return [("<f4", entry["count"] * dimension)]
    return [(entry["lengths"], entry["count"]), ("<u2", entry["nnz"]),
            (entry.get("counts", "<f4"), entry["nnz"])]


def level_blocks(nodes: NodeFile) -> list[list[np.ndarray]]:
    """Each stored level's blocks, in footer order, as writable arrays."""
    found, at = [], 0
    for entry in nodes.footer["levels"]:
        blocks = []
        for dtype, n in level_dtypes(entry, nodes.footer["dimension"]):
            size = n * np.dtype(dtype).itemsize
            blocks.append(np.frombuffer(nodes.vectors[at : at + size], dtype).copy())
            at += size
        found.append(blocks)
    return found


def set_level_blocks(nodes: NodeFile, found: list[list[np.ndarray]]) -> None:
    """Store ``found``, blocks as ``level_blocks`` gives them, as the
    levels' vectors, each block at the dtype its array holds."""
    nodes.vectors = b"".join(block.tobytes() for blocks in found for block in blocks)


def write_v2_corpus(directory) -> None:
    """Rewrite the corpus saved in ``directory`` in format v2: the documents
    in ``documents.jsonl``, and a ``nodes.bin`` of version 2 without them."""
    nodes = _read_nodes(directory / "nodes.bin")
    with open(directory / "documents.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, data in zip(nodes.header.pop("documents"), nodes.documents):
            record = {"doc_id": doc_id, "text": data.decode("utf-8")}
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    del nodes.header["document_bytes"]
    nodes.header["version"] = 2
    _write_nodes(directory / "nodes.bin", replace(nodes, documents=[]))


def write_v3_corpus(directory) -> None:
    """Rewrite the ``nodes.bin`` saved in ``directory`` in format v3, whose
    id table was one JSON array."""
    nodes = _read_nodes(directory / "nodes.bin")
    nodes.ids = json.dumps(nodes.id_list(), separators=(",", ":")).encode("ascii")
    nodes.header.update(version=3, ids_bytes=len(nodes.ids))
    _write_nodes(directory / "nodes.bin", nodes)


def _header(**fields):
    return lambda nodes: nodes.header.update(fields)


def _set(column, row, value):
    return lambda nodes: nodes.columns[column].__setitem__(row, value)


def _first_sentence(column, value):
    """Set ``column`` of the first sentence row to ``value``."""
    def edit(nodes):
        sentences = nodes.columns["level"] == list(Level).index(Level.SENTENCE)
        nodes.columns[column][np.argmax(sentences)] = value

    return edit


def _lengths(*deltas):
    """Add ``deltas`` to the documents' lengths in the header."""
    def edit(nodes):
        lengths = nodes.header["document_bytes"]
        lengths[:] = [n + delta for n, delta in zip(lengths, deltas)] + lengths[len(deltas):]

    return edit


def _not_utf8(nodes):
    """Document "b" with its first byte, "S", made a lone continuation byte."""
    nodes.documents[1] = b"\x80" + nodes.documents[1][1:]


def _row(nodes, suffix):
    """The row of the first node whose id ends with ``suffix``."""
    return next(row for row, chunk_id in enumerate(nodes.id_list())
                if chunk_id.endswith(suffix))


def _add(column, suffix, delta):
    """Add ``delta`` to ``column`` of the first node whose id ends with ``suffix``."""
    def edit(nodes):
        nodes.columns[column][_row(nodes, suffix)] += delta

    return edit


def _last_sentence_short(nodes):
    """The first intermediate's last sentence ends a byte short of it."""
    owner = _row(nodes, ":p0.i0")
    sentences = nodes.columns["level"] == list(Level).index(Level.SENTENCE)
    last = np.flatnonzero(sentences & (nodes.columns["parent"] == owner))[-1]
    nodes.columns["end"][last] -= 1


def _document_edge(column, delta):
    """Move by ``delta`` the ``column`` of every node of the first document
    that has it at the document's edge (a start at 0, or an end at its
    length), so that only the parent chunk breaks the document's tiling."""
    def edit(nodes):
        edge = 0 if column == "start" else nodes.header["document_bytes"][0]
        values = nodes.columns[column]
        values[(nodes.columns["doc"] == 0) & (values == edge)] += delta

    return edit


#: Edits of a saved node file that break how one level's spans tile the
#: level above; each loads where the tiling is not checked. With a fragment
#: of the one-line error.
TILING_CORRUPTIONS = {
    "late-sentence-start": (_add("start", ":p0.i1.s0", 4),
                            "p0.i1.s0': a gap comes before its span"),
    "overlapping-span": (_add("start", ":p0.i1.s0", -4),
                         "p0.i1.s0': its span overlaps the one before it or starts before"),
    "last-child-short": (_last_sentence_short,
                         "its span is the last under its owner but does not end where"),
    "token-sum": (_add("token_count", ":p0.i0.s0", 1),
                  "p0.i0': its children at one level do not sum to its token count"),
    "parent-not-at-0": (_document_edge("start", 1), "p0': a gap comes before its span"),
    # The first parent moved alone: its first child now starts before it,
    # but the parent, the earlier row, is the one named.
    "parent-alone-late": (_add("start", ":p0", 1), ":p0': a gap comes before its span"),
    "last-parent-short": (_document_edge("end", -1),
                          "its span is the last under its owner but does not end where"),
}


def _as_v5(nodes):
    """The file as format v5 wrote it: the ids joined by NUL after the columns."""
    nodes.ids = "\0".join(nodes.id_list()).encode("utf-8")
    nodes.header.update(version=5, ids_bytes=len(nodes.ids))


def _lengths_entry_as_string(nodes):
    lengths = nodes.header["document_bytes"]
    lengths[0] = str(lengths[0])


#: Each edit of a saved node file, with a fragment of the one-line error.
CORRUPTIONS = {
    "version": (_header(version=1), "version 1"),
    "header-fields": (lambda nodes: setattr(nodes, "header", {"version": 6}), "malformed header"),
    "chunking": (_header(chunking={"parent_size": "x"}), "malformed header"),
    "huge-count": (_header(count=10**13), "do not fill"),
    "count-off-by-one": (lambda nodes: _header(count=nodes.header["count"] - 1)(nodes),
                         "do not fill"),
    "tokenizer": (_header(tokenizer=["word-punct"]), "malformed header"),
    "document-id-nul": (_header(documents=["a", "b\0"]), "document id 'b\\x00' holds a NUL"),
    "document-id-surrogate": (_header(documents=["a\udc80", "b"]),
                              "document id 'a\\udc80' holds a NUL or does not encode"),
    "document-lengths-short": (_lengths(-1), "do not fill"),
    "document-lengths-long": (_lengths(0, 1), "do not fill"),
    # The sum stays that of the bytes the documents fill.
    "document-length-negative": (_lengths(-100, 100), "negative size"),
    "document-lengths-too-few": (lambda nodes: nodes.header["document_bytes"].pop(),
                                 "one string per document length"),
    "document-ids-not-strings": (_header(documents=[1, 2]), "one string per document length"),
    "document-id-twice": (_header(documents=["a", "a"]), "document id 'a' is used twice"),
    "document-not-utf8": (_not_utf8, "document 'b' is not UTF-8 (invalid start byte at byte 0)"),
    "level-code": (_set("level", 3, 4), "level code"),
    "document-row": (_set("doc", 0, 2), "document row"),
    "parent-row-later": (_set("parent", 1, 1), "parent row"),
    "parent-row-negative": (_set("parent", 1, -2), "parent row"),
    "empty-span": (_set("end", 2, 0), "span"),
    "negative-start": (_set("start", 0, -1), "span"),
    "beyond-document": (_set("end", 0, 10**6), "span"),
    "hard-split-flag": (_set("hard_split", 0, 2), "hard_split"),
    # In the fixture, row 0 is "a:p0", row 7 the parent chunk "b:p0", row 9
    # the intermediate "b:p0.i1" and rows 13-19 the side tier, 13 under "a:p0.i0".
    "sentence-to-parent-level": (_first_sentence("parent", 0), "not at the level above"),
    "side-tier-to-parent-level": (_set("parent", 13, 0), "not at the level above"),
    "parent-level-with-parent": (_set("parent", 7, 0), "parent-level node with a parent link"),
    "other-document": (_set("doc", 9, 0), "another document"),
    # Row 3, "a:p0.i0.s0", moved under "a:p0.i1": rows 3, 5 and 6 are that
    # intermediate's sentences, in two runs, the second from row 5.
    "run-split": (_set("parent", 3, 2), "node at row 5: it starts a second run of rows of its "
                                        "owner's children at its level"),
    "v5-file": (_as_v5, "corpus format version 5 is not read; re-run ingest"),
    "ids-bytes-at-v6": (_header(ids_bytes=0),
                        "the header holds 'ids_bytes', which format v6 does not store"),
    # Header numbers are JSON integers, never coerced.
    "version-float": (_header(version=4.0), "malformed header (version 4.0 is not an integer)"),
    "version-bool": (_header(version=True), "malformed header (version True is not an integer)"),
    "count-string": (lambda nodes: _header(count=str(nodes.header["count"]))(nodes),
                     "malformed header (count '20' is not an integer)"),
    "document-bytes-string": (_lengths_entry_as_string,
                              "malformed header (document_bytes[0] '84' is not an integer)"),
    **TILING_CORRUPTIONS,
    # A second sentence of one intermediate, against the first's end.
    "late-second-sentence-start": (_add("start", "a:p0.i0.s1", 4),
                                   "'a:p0.i0.s1': a gap comes before its span"),
    "second-sentence-overlapping": (_add("start", "a:p0.i0.s1", -4),
                                    "'a:p0.i0.s1': its span overlaps the one before it"),
}


class TestNodeFileFailsClosed:
    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_corruption_is_one_line_error(self, corpus, tmp_path, name):
        edit, message = CORRUPTIONS[name]
        save_corpus(corpus, tmp_path)
        path = tmp_path / "nodes.bin"
        nodes = _read_nodes(path)
        edit(nodes)
        _write_nodes(path, nodes)
        with pytest.raises(SnapshotFormatError) as exc:
            load_corpus(tmp_path)
        assert "nodes.bin" in str(exc.value) and message in str(exc.value)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("cut", [0, 5, 11, 40, -1], ids=["empty", "magic", "length",
                                                            "header", "documents"])
    def test_truncation_is_one_line_error(self, corpus, tmp_path, cut):
        save_corpus(corpus, tmp_path)
        path = tmp_path / "nodes.bin"
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(SnapshotFormatError, match="nodes.bin"):
            load_corpus(tmp_path)

    def test_trailing_bytes_rejected(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        path = tmp_path / "nodes.bin"
        path.write_bytes(path.read_bytes() + b" ")
        with pytest.raises(SnapshotFormatError, match="do not fill"):
            load_corpus(tmp_path)

    def test_bad_magic_rejected(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        path = tmp_path / "nodes.bin"
        _write_nodes(path, _read_nodes(path), magic=b"HRRNODX\n")
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_corpus(tmp_path)

    def test_huge_header_length_rejected_before_reading(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        path = tmp_path / "nodes.bin"
        data = path.read_bytes()
        path.write_bytes(data[:8] + struct.pack("<I", 2**32 - 1) + data[12:])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_corpus(tmp_path)

    def test_deeply_nested_header_rejected(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        header = b"[" * 100_000 + b"]" * 100_000
        (tmp_path / "nodes.bin").write_bytes(NODE_MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(SnapshotFormatError, match="malformed header"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("key, value", [("parent_overlap", True), ("parent_size", 24.5),
                                            ("intermediate_size", 10.0)])
    def test_chunking_values_are_json_integers(self, corpus, tmp_path, key, value):
        """The header's chunking settings pass the config file's own check,
        so a bool or a float is not taken for an integer. An overlap of
        ``true`` would switch off the tiling and token-sum rules, so an
        intermediate whose token count was raised by 7 would load."""
        save_corpus(corpus, tmp_path)
        path = tmp_path / "nodes.bin"
        nodes = _read_nodes(path)
        nodes.header["chunking"][key] = value
        _add("token_count", ":p0.i0", 7)(nodes)
        _write_nodes(path, nodes)
        with pytest.raises(SnapshotFormatError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == (
            f"{path}: malformed header (chunking.{key} must be an integer, got {json.dumps(value)})")

    def test_span_cutting_a_character_rejected(self, tmp_path):
        multibyte = build_corpus({"u": "Été brûle. Ça va très bien."}, CFG)
        save_corpus(multibyte, tmp_path)
        path = tmp_path / "nodes.bin"
        nodes = _read_nodes(path)
        nodes.columns["start"][0] = 1  # inside the two bytes of "É"
        _write_nodes(path, nodes)
        with pytest.raises(SnapshotFormatError, match="cuts a UTF-8 character"):
            load_corpus(tmp_path)


class TestStructureGate:
    """Built and loaded corpora pass one structure check."""

    DOCS = {"a": "Été brûle. Ça va très bien.", "b": "Short doc here. Another line follows."}

    def test_span_ending_inside_a_character(self):
        # "É" is bytes 0-1 of "Été".
        with pytest.raises(InvalidCorpusError, match="'d:p0': its span cuts a UTF-8 character"):
            corpus_of({"d": "Été"}, [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 1), 1)],
                      CFG)

    def test_cut_found_in_a_document_after_an_ascii_one(self):
        # An ASCII document holds no continuation byte, so its rows cannot
        # cut; the next document's rows are still checked.
        nodes = [ChunkNode("a:p0", Level.PARENT, "a", None, (0, 3), 1),
                 ChunkNode("u:p0", Level.PARENT, "u", None, (1, 5), 1)]
        with pytest.raises(InvalidCorpusError, match="'u:p0': its span cuts a UTF-8 character"):
            corpus_of({"a": "abc", "u": "Été"}, nodes, CFG)

    def test_document_that_is_not_utf8_is_refused(self):
        """The corpus proves its documents UTF-8 when constructed, built or
        loaded alike, so no ``chunk_text`` fails to decode and no saved file
        fails to load."""
        with pytest.raises(InvalidCorpusError) as exc:
            Corpus({"d": b"\xffab cd"}, [[0], [0], [-1], [0], [6], [2], [0]],
                   config=CFG, tokenizer_name="word-punct")
        assert str(exc.value) == "document 'd' is not UTF-8 (invalid start byte at byte 0)"

    @pytest.mark.parametrize("doc_id", ["d\0", "d\udc80"])
    def test_document_id_that_cannot_be_stored_is_refused(self, doc_id):
        with pytest.raises(InvalidCorpusError) as exc:
            build_corpus({"ok": "Gamma delta.", doc_id: "alpha beta."}, CFG)
        assert str(exc.value) == (
            f"document id {doc_id!r} holds a NUL or does not encode as UTF-8")

    def test_span_one_byte_past_the_document(self):
        with pytest.raises(InvalidCorpusError, match="'d:p0': its span"):
            corpus_of({"d": "alpha beta"},
                      [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 11), 2)], CFG)

    def test_intermediate_without_parent_link(self):
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
                 ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", None, (0, 10), 2)]
        with pytest.raises(InvalidCorpusError, match="node at row 1: its parent link is missing"):
            corpus_of({"d": "alpha beta"}, nodes, CFG)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_edited_field_is_refused_or_round_trips(self, data):
        nodes = list(nodes_of(build_corpus(self.DOCS, CFG)))
        ids = [node.id for node in nodes]
        values = {
            "level": st.sampled_from(Level),
            "doc_id": st.sampled_from([*self.DOCS, "missing"]),
            "parent_id": st.sampled_from([None, "missing", *ids]),
            "char_span": st.tuples(st.integers(-1, 40), st.integers(-1, 40) | st.just(2**63)),
            "token_count": st.integers(0, 40) | st.sampled_from([-1, 2**32]),
            "hard_split": st.booleans(),
        }
        row = data.draw(st.integers(0, len(nodes) - 1), label="row")
        field = data.draw(st.sampled_from(sorted(values)), label="field")
        nodes[row] = replace(nodes[row], **{field: data.draw(values[field], label="value")})
        try:
            # The edited node may now derive another id, so the table is
            # read without ``corpus_of``'s check of the ids.
            corpus = Corpus(*table_of(self.DOCS, nodes), config=CFG, tokenizer_name="word-punct")
        except InvalidCorpusError:
            return
        with tempfile.TemporaryDirectory() as directory:
            save_corpus(corpus, directory)
            loaded = load_corpus(directory)
        # Every corpus the structure check accepts derives distinct ids.
        ids = list(corpus.ids_of(range(len(corpus))))
        assert len(set(ids)) == len(ids)
        # Row order: the hierarchy as given, then the side tier.
        built = nodes_of(corpus)
        assert list(nodes_of(loaded)) == ([n for n in built if n.level in HIERARCHY_LEVELS]
                                          + [n for n in built if n.level not in HIERARCHY_LEVELS])
        assert [(n.level, n.doc_id, n.char_span, n.token_count, n.hard_split) for n in built] == [
            (n.level, n.doc_id, n.char_span, n.token_count, n.hard_split) for n in nodes]


def _tiles(documents, nodes) -> bool:
    """Reference for the tiling rules, one node at a time: whether each
    document's parents, and each node's children at one level, in the order
    given, tile their owner, the children's token counts summing to it."""
    by_id = {node.id: node for node in nodes}
    groups = {}
    for node in nodes:
        groups.setdefault((node.parent_id or node.doc_id, node.level), []).append(node)
    for (owner_id, _), members in groups.items():
        owner = by_id.get(owner_id)
        if owner is None:  # a document's parents
            pos, end, total = 0, len(documents[owner_id].encode("utf-8")), None
        else:
            (pos, end), total = owner.char_span, owner.token_count
        for node in members:
            if node.char_span[0] != pos:
                return False
            pos = node.char_span[1]
        if pos != end or total not in (None, sum(node.token_count for node in members)):
            return False
    return True


class TestTilingMatchesReference:
    DOCS = {"a": "One two three four. Five six seven eight. Nine ten.",
            "b": "Short doc here. Another line follows."}
    MESSAGES = ("a gap comes before", "overlaps the one before", "does not end where the owner",
                "do not sum to its token count")

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["start", "end", "tokens"]),
                              st.integers(-3, 3)), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_refused_exactly_when_the_reference_finds_no_tiling(self, edits):
        nodes = list(nodes_of(build_corpus(self.DOCS, CFG)))
        for row, field, delta in edits:
            node = nodes[row % len(nodes)]
            start, end = node.char_span
            if field == "tokens":
                node = replace(node, token_count=max(node.token_count + delta, 0))
            else:
                start, end = (start + delta, end) if field == "start" else (start, end + delta)
                size = len(self.DOCS[node.doc_id])
                node = replace(node, char_span=(min(max(start, 0), size - 1),
                                                min(max(end, start + 1, 1), size)))
            nodes[row % len(nodes)] = node
        try:
            corpus_of(self.DOCS, nodes, CFG)
        except InvalidCorpusError as exc:
            assert any(message in str(exc) for message in self.MESSAGES), exc
            assert not _tiles(self.DOCS, nodes)
        else:
            assert _tiles(self.DOCS, nodes)


def _chunker_nodes(documents, config):
    """The chunker's nodes, hierarchy first, then the side tier: the oracle,
    chunked one document at a time."""
    nodes = [n for doc_id, text in documents.items()
             for n in nodes_of(build_corpus({doc_id: text}, config))]
    return ([n for n in nodes if n.level is not Level.SUB_INTERMEDIATE]
            + [n for n in nodes if n.level is Level.SUB_INTERMEDIATE])


def _children(nodes):
    """Each parent id to its children's ids, in the order given."""
    children = {}
    for node in nodes:
        if node.parent_id is not None:
            children.setdefault(node.parent_id, []).append(node.id)
    return children


def _assert_matches_chunker(loaded, documents, config):
    expected = _chunker_nodes(documents, config)
    hierarchy = tuple(n for n in expected if n.level is not Level.SUB_INTERMEDIATE)
    assert nodes_of(loaded) == tuple(expected)
    assert nodes_of(loaded)[: len(hierarchy)] == hierarchy
    assert nodes_of(loaded)[len(hierarchy) :] == nodes_of(loaded, Level.SUB_INTERMEDIATE)
    for level in Level:
        at_level = tuple(n for n in expected if n.level is level)
        assert nodes_of(loaded, level) == at_level
        assert level_ids(loaded, level) == tuple(n.id for n in at_level)
    assert loaded.levels == tuple(level for level in Level if nodes_of(loaded, level))
    assert len(loaded) == len(expected)
    assert _children(nodes_of(loaded)) == _children(expected)
    assert all(n.id in loaded for n in expected)
    assert [loaded.get(n.id) for n in expected] == expected
    for node in expected:
        assert loaded.chunk_text(node.id) == (
            documents[node.doc_id].encode("utf-8")[slice(*node.char_span)].decode("utf-8")
        )
        assert resolve_parent(loaded, node.id, Level.PARENT) == (
            node.id if node.level is Level.PARENT else
            resolve_parent(loaded, node.parent_id, Level.PARENT)
        )
    parents = [n for n in expected if n.level is Level.PARENT]
    for doc_id, text in documents.items():
        size = len(text.encode("utf-8"))
        for byte in range(-1, size + 2, 7):
            owner = next((n.id for n in parents if n.doc_id == doc_id
                          and n.char_span[0] <= byte < n.char_span[1]), None)
            assert loaded.parent_at(doc_id, byte) == owner


class TestLoadMatchesChunker:
    @pytest.mark.parametrize(
        "seed, config",
        [(42, ChunkingConfig()),
         (5, ChunkingConfig(parent_size=256, parent_overlap=60, intermediate_size=64,
                            intermediate_overlap=10, sub_intermediate_size=32))],
        ids=["seed42-default", "seed5-256-64-32-overlap"],
    )
    def test_loaded_corpus_equals_chunker_output(self, tmp_path, seed, config):
        documents = generate(CorpusSpec(seed=seed, n_docs=4 if seed == 5 else 20),
                             chunking=config).documents
        save_corpus(build_corpus(documents, config), tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded.documents == {doc_id: text.encode("utf-8")
                                    for doc_id, text in documents.items()}
        assert loaded.config == config
        _assert_matches_chunker(loaded, documents, config)

    @given(
        # Any id a corpus takes: one without a NUL or a lone surrogate, which
        # it refuses; ``characters`` draws surrogates unless its codec is UTF-8.
        st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\0"),
                         min_size=1, max_size=6),
                 min_size=1, max_size=3, unique=True),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_with_any_document_ids(self, doc_ids, seed):
        rng = random.Random(seed)
        words = ["alpha", "été", "çà", "naïve", "日本", "x", "zed"]
        documents = {
            doc_id: " ".join(
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 9))) + "."
                for _ in range(rng.randint(1, 8))
            )
            for doc_id in doc_ids
        }
        with tempfile.TemporaryDirectory() as directory:
            save_corpus(build_corpus(documents, CFG), directory)
            loaded = load_corpus(directory)
        assert list(loaded.documents) == doc_ids
        _assert_matches_chunker(loaded, documents, CFG)


def _ancestor(corpus, chunk_id, level):
    try:
        return resolve_parent(corpus, chunk_id, level)
    except LevelViolationError:
        return None


class TestDepthFirstTablesRefused:
    """Earlier versions saved the hierarchy depth-first, each parent followed
    by its intermediates and each of those by its sentences, as the
    recursive reference chunker still builds it. There a parent's
    intermediates are not one run of rows, so no id is derived from their
    offsets: such a table is refused, naming the row that starts an
    owner's second run, here the second intermediate of the first parent."""

    @pytest.mark.parametrize("config", [
        ChunkingConfig(),
        ChunkingConfig(parent_size=256, parent_overlap=60, intermediate_size=64,
                       intermediate_overlap=10, sub_intermediate_size=32),
    ], ids=["default", "256-64-32-overlap"])
    def test_refused_naming_the_second_run(self, config):
        documents = generate(CorpusSpec(seed=5, n_docs=4), chunking=config).documents
        rows = reference_text.node_rows(documents, config, WordPunctTokenizer())
        second = next(row for row, (chunk_id, *_) in enumerate(rows)
                      if chunk_id.endswith(":p0.i1"))
        assert rows[second - 1][1] == list(Level).index(Level.SENTENCE)
        with pytest.raises(InvalidCorpusError) as exc:
            reference_text.build_corpus(documents, config)
        assert str(exc.value) == (
            f"node at row {second}: it starts a second run of rows of its owner's children "
            "at its level")


#: Two-, three- and four-byte UTF-8 characters, the last outside the BMP.
MULTIBYTE_DOCS = {
    "m": "Überall läuft code. Ça va très bien. 東京は大きい。 Notes: 𝄞 clef, 😀 face.",
    "n": "Astral 𐍈 letters 𐍈𐍉 here. Plain words follow on. Ünïcode wörds end it.",
}


class TestChunkTexts:
    """``chunk_text`` hands out one shared ``str`` per chunk from a memo
    bounded like the lexical reranker's token-set cache; ``texts_at`` reads
    a whole level past it."""

    @pytest.fixture
    def texts_built(self, monkeypatch):
        """The corpora whose ``chunk_text`` memo gets built."""
        built = []
        memo = corpus_module.Corpus.__dict__["_texts"]

        def spy(corpus):
            built.append(corpus)
            return memo.__get__(corpus, type(corpus))

        monkeypatch.setattr(corpus_module.Corpus, "_texts", property(spy))
        return built

    def test_a_repeated_lookup_returns_the_same_object(self):
        c = build_corpus(MULTIBYTE_DOCS, CFG)
        for chunk_id in (n.id for n in nodes_of(c)):
            assert c.chunk_text(chunk_id) is c.chunk_text(chunk_id)

    def test_the_memo_shares_the_token_set_bound(self):
        c = build_corpus(MULTIBYTE_DOCS, CFG)
        assert "_texts" not in vars(c)
        c.chunk_text("m:p0")
        assert c._texts.cache_info().maxsize == TOKEN_SET_CACHE_SIZE

    def test_ingest_and_index_builds_leave_the_memo_unbuilt(self, tmp_path, texts_built):
        (tmp_path / "docs").mkdir()
        for doc_id, text in MULTIBYTE_DOCS.items():
            (tmp_path / "docs" / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        config = EngineConfig(
            chunking=CFG,
            paths=PathsConfig(corpus_dir=str(tmp_path / "c"), index_dir=str(tmp_path / "i")),
        )
        ingest(tmp_path / "docs", config)
        c = build_corpus(MULTIBYTE_DOCS, CFG)
        for level in c.levels:
            build_index(c, level, HashedBowEmbedder(dimension=64))
        context_for(c, config)
        ctx = load_context(config)
        assert texts_built == []
        ctx.corpus.chunk_text("m:p0")  # the spy sees a query's lookup
        assert texts_built == [ctx.corpus]

    def test_texts_of_rows_are_the_chunk_text_objects(self):
        c = build_corpus(MULTIBYTE_DOCS, CFG)
        rows = c.rows_at(Level.SENTENCE)[::-1].tolist()
        texts = list(c.texts_of(rows))
        ids = list(c.ids_of(rows))
        assert all(t is c.chunk_text(i) for t, i in zip(texts, ids))
        assert list(c.texts_of(rows[:3])) == c.texts_at(Level.SENTENCE)[::-1][:3]

    def test_texts_at_matches_chunk_text(self, tmp_path):
        built = build_corpus(MULTIBYTE_DOCS, CFG)
        save_corpus(built, tmp_path)
        for c in (built, load_corpus(tmp_path)):
            assert set(c.levels) == set(Level)
            for level in c.levels:
                texts, expected = c.texts_at(level), [c.chunk_text(i) for i in level_ids(c, level)]
                assert list(texts) == [texts[i] for i in range(len(texts))] == expected
                assert texts[1:3] == expected[1:3] and texts[-1] == expected[-1]
                nodes = [c.get(i) for i in level_ids(c, level)]
                assert [texts.documents[d][s:e] for d, s, e in zip(texts.doc, texts.start,
                                                                     texts.end)] == [
                    c.documents[n.doc_id][n.char_span[0]:n.char_span[1]] for n in nodes]
            assert any(len(t.encode("utf-8")) > len(t) for t in c.texts_at(Level.SENTENCE))
            assert any(ord(ch) > 0xFFFF for t in c.texts_at(Level.PARENT) for ch in t)

    def test_lexical_scores_do_not_depend_on_shared_texts(self):
        c = build_corpus(generate(CorpusSpec(seed=3, n_docs=2)).documents, ChunkingConfig())
        ids = level_ids(c, Level.INTERMEDIATE)
        shared = [c.chunk_text(i) for i in ids + ids]
        copies = [text.encode("utf-8").decode("utf-8") for text in shared]
        assert all(a == b and a is not b for a, b in zip(shared, copies))
        query = " ".join(shared[0].split()[:6] + shared[-1].split()[:6])
        reranker = LexicalOverlapReranker()
        scores = [
            [float.hex(s) for s in scorer.score_pairs(query, texts)]
            for scorer, texts in ((reranker, shared), (reranker, copies),
                                  (LexicalOverlapReranker(), copies))
        ]
        assert scores[0] == scores[1] == scores[2]
        assert len(set(scores[0])) > 1
