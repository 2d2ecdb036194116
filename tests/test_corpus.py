"""Hierarchy model, ancestor resolution, validation, and serialization."""

import json
import random
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrr.corpus as corpus_module
from hrr.chunking import ChunkingConfig, build_corpus
from hrr.corpus import (
    HIERARCHY_LEVELS,
    ChunkNode,
    Level,
    load_corpus,
    read_snapshot,
    resolve_parent,
    save_corpus,
    validate_corpus,
    write_snapshot,
)
from hrr.errors import (
    InvalidCorpusError,
    LevelViolationError,
    SnapshotFormatError,
    UnknownChunkError,
)
from hrr.synth import CorpusSpec, generate

from node_table import corpus_of

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
            size = len(corpus.documents.get(doc_id, b""))
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
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0.s0': its parent is not at"):
            corpus_of(doc, nodes, CFG)

    def test_duplicate_id(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
        ]
        with pytest.raises(InvalidCorpusError, match="'d:p0' names more than one node"):
            corpus_of(doc, nodes, CFG)

    def test_dangling_parent(self):
        doc = {"d": "alpha beta"}
        nodes = [
            ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
            ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p9", (0, 10), 2),
        ]
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0': its parent row is not"):
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
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0.c0': its parent is not at"):
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


class TestRoundTrip:
    def test_parents_reassemble_document(self, corpus):
        for doc_id, data in corpus.documents.items():
            parents = [
                n for n in corpus.nodes if n.level is Level.PARENT and n.doc_id == doc_id
            ]
            joined = b"".join(data[n.char_span[0] : n.char_span[1]] for n in parents)
            assert joined == data

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
        parents = before.ids_at(Level.PARENT)
        assert [loaded.chunk_text(i) for i in parents] == [before.chunk_text(i) for i in parents]
        assert (tmp_path / "nodes.bin").read_bytes() == written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.bin"]

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

    def test_unsaveable_corpus_refused(self):
        """A corpus that could not be saved is not constructed."""
        doc = {"d": "alpha beta"}
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0'"):
            corpus_of(doc, [ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", "d:p9", (0, 10), 2)],
                      CFG)


#: The node file (corpus format v3), spelled out apart from ``hrr.corpus``:
#: in the snapshot container, the header's sizes give the body's blocks,
#: which are these columns, the ids as one JSON array, then each document's
#: UTF-8 bytes.
NODE_MAGIC = b"HRRNODE\n"
NODE_COLUMNS = (("level", "u1"), ("doc", "<u4"), ("parent", "<i4"), ("start", "<i8"),
                ("end", "<i8"), ("token_count", "<u4"), ("hard_split", "u1"))


@dataclass
class NodeFile:
    header: dict
    columns: dict[str, np.ndarray]
    ids: bytes
    documents: list[bytes]


def _read_nodes(path) -> NodeFile:
    def sizes(header):
        columns = [header["count"] * np.dtype(dtype).itemsize for _, dtype in NODE_COLUMNS]
        return header, [*columns, header["ids_bytes"], *header["document_bytes"]]

    snapshot = read_snapshot(path, NODE_MAGIC, sizes)
    header = next(snapshot)
    columns = {name: np.frombuffer(next(snapshot), dtype).copy() for name, dtype in NODE_COLUMNS}
    ids, *documents = snapshot
    return NodeFile(header, columns, ids, documents)


def _write_nodes(path, nodes: NodeFile, *, magic=NODE_MAGIC):
    columns = [nodes.columns[name].astype(dtype) for name, dtype in NODE_COLUMNS]
    write_snapshot(path, magic, nodes.header, [*columns, nodes.ids, *nodes.documents])


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


def _header(**fields):
    return lambda nodes: nodes.header.update(fields)


def _set(column, row, value):
    return lambda nodes: nodes.columns[column].__setitem__(row, value)


def _ids(table):
    def edit(nodes):
        nodes.ids = table
        nodes.header["ids_bytes"] = len(table)

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
    return next(row for row, chunk_id in enumerate(json.loads(nodes.ids))
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


def _lengths_entry_as_string(nodes):
    lengths = nodes.header["document_bytes"]
    lengths[0] = str(lengths[0])


#: Each edit of a saved node file, with a fragment of the one-line error.
CORRUPTIONS = {
    "version": (_header(version=1), "version 1"),
    "header-fields": (lambda nodes: setattr(nodes, "header", {"version": 3}), "malformed header"),
    "chunking": (_header(chunking={"parent_size": "x"}), "malformed header"),
    "huge-count": (_header(count=10**13), "do not fill"),
    "count-off-by-one": (lambda nodes: _header(count=nodes.header["count"] - 1)(nodes),
                         "do not fill"),
    "ids-bytes": (lambda nodes: _header(ids_bytes=nodes.header["ids_bytes"] + 1)(nodes),
                  "do not fill"),
    "ids-not-json": (_ids(b"[\"a:p0\""), "id table"),
    "ids-nested-deep": (_ids(b"[" * 100_000 + b"]" * 100_000), "id table"),
    "tokenizer": (_header(tokenizer=["word-punct"]), "malformed header"),
    "ids-not-array": (_ids(b'{"a:p0": 1}'), "id table"),
    "ids-too-few": (_ids(b'["a:p0"]'), "id table"),
    "ids-not-strings": (lambda nodes: _ids(json.dumps(list(range(nodes.header["count"])))
                                           .encode())(nodes), "id table"),
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
    # In the fixture, row 0 is "a:p0", row 2 the sentence "a:p0.i0.s0", row 7
    # the parent chunk "b:p0", row 9 the sentence "b:p0.i0.s0" (bytes 0-16 of
    # "b") and rows 13-19 the side tier, 13 under "a:p0.i0".
    "sentence-to-parent-level": (_set("parent", 2, 0), "not at the level above"),
    "side-tier-to-parent-level": (_set("parent", 13, 0), "not at the level above"),
    "parent-level-with-parent": (_set("parent", 7, 0), "parent-level node with a parent link"),
    "other-document": (_set("doc", 9, 0), "another document"),
    "duplicate-id": (lambda nodes: _ids(_last_named_first(nodes.ids))(nodes),
                     "'a:p0' names more than one node"),
    # Header numbers are JSON integers, never coerced.
    "version-float": (_header(version=3.0), "malformed header (version 3.0 is not an integer)"),
    "version-bool": (_header(version=True), "malformed header (version True is not an integer)"),
    "count-string": (lambda nodes: _header(count=str(nodes.header["count"]))(nodes),
                     "malformed header (count '20' is not an integer)"),
    "ids-bytes-float": (lambda nodes: _header(ids_bytes=float(nodes.header["ids_bytes"]))(nodes),
                        "ids_bytes"),
    "document-bytes-string": (_lengths_entry_as_string,
                              "malformed header (document_bytes[0] '84' is not an integer)"),
    **TILING_CORRUPTIONS,
    # A second sentence of one intermediate, against the first's end.
    "late-second-sentence-start": (_add("start", "a:p0.i0.s1", 4),
                                   "'a:p0.i0.s1': a gap comes before its span"),
    "second-sentence-overlapping": (_add("start", "a:p0.i0.s1", -4),
                                    "'a:p0.i0.s1': its span overlaps the one before it"),
}


def _last_named_first(ids):
    """The id table with the last node given the first node's id."""
    table = json.loads(ids)
    return json.dumps([*table[:-1], table[0]]).encode()


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

    def test_span_one_byte_past_the_document(self):
        with pytest.raises(InvalidCorpusError, match="'d:p0': its span"):
            corpus_of({"d": "alpha beta"},
                      [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 11), 2)], CFG)

    def test_intermediate_without_parent_link(self):
        nodes = [ChunkNode("d:p0", Level.PARENT, "d", None, (0, 10), 2),
                 ChunkNode("d:p0.i0", Level.INTERMEDIATE, "d", None, (0, 10), 2)]
        with pytest.raises(InvalidCorpusError, match="'d:p0.i0': its parent link is missing"):
            corpus_of({"d": "alpha beta"}, nodes, CFG)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_edited_field_is_refused_or_round_trips(self, data):
        nodes = list(build_corpus(self.DOCS, CFG))
        ids = [node.id for node in nodes]
        values = {
            "id": st.sampled_from([*ids, "fresh"]),
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
            corpus = corpus_of(self.DOCS, nodes, CFG)
        except InvalidCorpusError:
            return
        with tempfile.TemporaryDirectory() as directory:
            save_corpus(corpus, directory)
            loaded = load_corpus(directory)
        # Row order: the hierarchy as given, then the side tier.
        assert list(loaded) == ([n for n in nodes if n.level in HIERARCHY_LEVELS]
                                + [n for n in nodes if n.level not in HIERARCHY_LEVELS])


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
        nodes = list(build_corpus(self.DOCS, CFG))
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
             for n in build_corpus({doc_id: text}, config)]
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
    assert list(loaded) == expected
    assert loaded.nodes == tuple(n for n in expected if n.level is not Level.SUB_INTERMEDIATE)
    assert loaded.sub_nodes == tuple(n for n in expected if n.level is Level.SUB_INTERMEDIATE)
    for level in Level:
        at_level = tuple(n for n in expected if n.level is level)
        assert loaded.nodes_at(level) == at_level
        assert loaded.ids_at(level) == tuple(n.id for n in at_level)
    assert loaded.levels == tuple(level for level in Level if loaded.nodes_at(level))
    assert len(loaded) == len(expected)
    assert _children(loaded.nodes + loaded.sub_nodes) == _children(expected)
    assert dict(loaded.chunks) == {n.id: n for n in expected}
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
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3, unique=True),
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
