"""Hierarchy model, ancestor resolution, validation, and serialization."""

import pytest

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.corpus import (
    ChunkNode,
    Corpus,
    Level,
    load_corpus,
    resolve_parent,
    save_corpus,
    validate_corpus,
)
from hrr.errors import LevelViolationError, SnapshotFormatError, UnknownChunkError

CFG = ChunkingConfig(parent_size=24, intermediate_size=10, sub_intermediate_size=5)


@pytest.fixture(scope="module")
def corpus():
    docs = {
        "a": "One two three four. Five six seven eight. Nine ten eleven. Twelve thirteen fourteen.",
        "b": "Short doc here. Another line follows. And a third one.",
    }
    return build_corpus(docs, CFG)


def _node(corpus, level, idx=0):
    return corpus.nodes_at(level)[idx]


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
        sub = corpus.sub_nodes[0]
        parent = resolve_parent(corpus, sub.id, Level.PARENT)
        assert corpus.get(parent).level is Level.PARENT

    def test_sentence_cannot_reach_sub_tier(self, corpus):
        sentence = _node(corpus, Level.SENTENCE)
        with pytest.raises(LevelViolationError):
            resolve_parent(corpus, sentence.id, Level.SUB_INTERMEDIATE)

    def test_two_hop_equals_one_hop_for_all_sentences(self, corpus):
        for node in corpus.nodes_at(Level.SENTENCE):
            via = resolve_parent(
                corpus, resolve_parent(corpus, node.id, Level.INTERMEDIATE), Level.PARENT
            )
            assert via == resolve_parent(corpus, node.id, Level.PARENT)


def _scan_parent_at(corpus, doc_id, byte):
    """Reference: the first parent of the document whose span holds ``byte``."""
    for node in corpus.nodes_at(Level.PARENT):
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
            size = len(corpus.documents.get(doc_id, "").encode("utf-8"))
            for byte in range(-2, size + 3):
                assert corpus.parent_at(doc_id, byte) == _scan_parent_at(corpus, doc_id, byte)

    def test_overlap_byte_belongs_to_earlier_parent(self):
        config = ChunkingConfig(parent_size=40, parent_overlap=15, intermediate_size=12,
                                sub_intermediate_size=None)
        corpus = build_corpus(self.DOCS, config)
        p0, p1 = [n for n in corpus.nodes_at(Level.PARENT) if n.doc_id == "ascii"][:2]
        assert p1.char_span[0] < p0.char_span[1]  # the spans really overlap
        assert corpus.parent_at("ascii", p1.char_span[0]) == p0.id


class TestValidateCorpus:
    def test_chunker_output_is_clean(self, corpus):
        assert validate_corpus(corpus) == []

    def test_pure_function(self, corpus):
        assert validate_corpus(corpus) == validate_corpus(corpus)

    def test_hierarchy_skip(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p0", (0, 10), 2),
            # sentence wired straight to the parent-level node
            ChunkNode("d:p0.i0.s0", Level.SENTENCE, "d", "d:p0", (0, 10), 2),
        ]
        bad = Corpus(doc, nodes, config=CFG)
        rules = [v.rule for v in validate_corpus(bad)]
        assert "HierarchySkip" in rules

    def test_duplicate_id(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
        ]
        bad = Corpus(doc, nodes, config=CFG)
        assert "DuplicateId" in [v.rule for v in validate_corpus(bad)]

    def test_dangling_parent(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p9", (0, 10), 2),
        ]
        bad = Corpus(doc, nodes, config=CFG)
        assert "DanglingParent" in [v.rule for v in validate_corpus(bad)]

    def test_budget_and_drift(self):
        doc = {"d": "one two three four five six seven eight nine ten eleven twelve"}
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, len(doc["d"])), 3)]
        bad = Corpus(doc, nodes, config=ChunkingConfig(parent_size=5, intermediate_size=2))
        rules = [v.rule for v in validate_corpus(bad)]
        assert "TokenCountDrift" in rules and "BudgetExceeded" in rules

    def test_coverage_gap(self):
        doc = {"d": "abcdef ghijkl"}
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 6), 1)]
        bad = Corpus(doc, nodes, config=CFG)
        assert "CoverageGap" in [v.rule for v in validate_corpus(bad)]

    def test_span_out_of_bounds(self):
        doc = {"d": "tiny"}
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 99), 1)]
        bad = Corpus(doc, nodes, config=CFG)
        assert [v.rule for v in validate_corpus(bad)] == ["SpanOutOfBounds", "CoverageGap"]


    # "alpha beta gamma delta": one parent, intermediate and sentence over the
    # whole 22-byte, 4-token document, plus a side tier under the intermediate.
    SIDE_DOC = {"d": "alpha beta gamma delta"}

    def _side_corpus(self, *side_nodes):
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 22), 4),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p0", (0, 22), 4),
            ChunkNode("d:p0.i0.s0", Level.SENTENCE, "d", "d:p0.i0", (0, 22), 4),
            *side_nodes,
        ]
        return Corpus(self.SIDE_DOC, nodes, config=CFG)

    def test_clean_side_tier(self):
        good = self._side_corpus(
            ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 11), 2),
            ChunkNode("d:p0.i0.c1", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (11, 22), 2),
        )
        assert validate_corpus(good) == []

    def test_side_tier_linked_to_parent(self):
        bad = self._side_corpus(
            ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0", (0, 22), 4),
        )
        assert "HierarchySkip" in [v.rule for v in validate_corpus(bad)]

    def test_side_tier_gap(self):
        bad = self._side_corpus(
            ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 11), 2),
            ChunkNode("d:p0.i0.c1", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (17, 22), 1),
        )
        gaps = [v for v in validate_corpus(bad) if v.rule == "CoverageGap"]
        assert [v.chunk_id for v in gaps] == ["d:p0.i0.c1"]

    def test_side_tier_token_sum(self):
        # The cut falls inside "beta", so the two pieces hold 2 + 3 tokens.
        bad = self._side_corpus(
            ChunkNode("d:p0.i0.c0", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (0, 8), 2),
            ChunkNode("d:p0.i0.c1", Level.SUB_INTERMEDIATE, "d", "d:p0.i0", (8, 22), 3),
        )
        violations = validate_corpus(bad)
        assert [(v.rule, v.chunk_id) for v in violations] == [("TokenSumMismatch", "d:p0.i0")]


class TestRoundTrip:
    def test_parents_reassemble_document(self, corpus):
        for doc_id, text in corpus.documents.items():
            parents = [
                n for n in corpus.nodes if n.level is Level.PARENT and n.doc_id == doc_id
            ]
            joined = b"".join(
                corpus.document_bytes(doc_id)[n.char_span[0] : n.char_span[1]]
                for n in parents
            )
            assert joined == text.encode("utf-8")

    def test_multibyte_spans_decode(self):
        docs = {"u": "Überall läuft code. Çok güzel çalışıyor. Ça va très bien."}
        c = build_corpus(docs, CFG)
        assert validate_corpus(c) == []
        for node in c.nodes:
            assert c.chunk_text(node.id)  # every span decodes cleanly


class TestSerialization:
    def test_round_trip(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded.documents == corpus.documents
        assert loaded.nodes == corpus.nodes
        assert loaded.sub_nodes == corpus.sub_nodes
        assert loaded.config == corpus.config
        assert validate_corpus(loaded) == []

    def test_rewrite_is_byte_identical(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path / "one")
        save_corpus(corpus, tmp_path / "two")
        for name in ("documents.jsonl", "chunks.jsonl"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_optional_text_field(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path, include_text=True)
        lines = (tmp_path / "chunks.jsonl").read_text().splitlines()
        import json

        rec = json.loads(lines[1])
        assert rec["text"] == corpus.chunk_text(rec["id"])

    def test_bad_header_rejected(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        chunks = tmp_path / "chunks.jsonl"
        lines = chunks.read_text().splitlines()
        lines[0] = '{"format":"other","version":9}'
        chunks.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotFormatError):
            load_corpus(tmp_path)
