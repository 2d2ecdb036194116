"""Config loading rules and the CLI workflow end to end."""

import codecs
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import requests

import hrr
from hrr.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_IO, EXIT_OK, EXIT_PROVIDER, main
from hrr.config import config_from_dict, load_config
from hrr.chunking import build_corpus
from hrr.corpus import ChunkNode, Level, load_corpus, save_corpus
from hrr.engine import load_context
from hrr.embedding import HashedBowEmbedder
from hrr.errors import ConfigError, ProviderUnavailableError
from hrr import evaluation
import hrr.corpus as corpus_module
from hrr.evaluation import load_query_set

from test_corpus import (
    TILING_CORRUPTIONS, _read_nodes, _write_nodes, level_blocks, level_dtypes, set_level_blocks,
    write_v2_corpus, write_v3_corpus
)


class TestConfigLoading:
    def test_defaults_match_reference_parameters(self):
        config = load_config(None)
        assert config.chunking.parent_size == 2048
        assert config.chunking.parent_overlap == 0
        assert config.chunking.intermediate_size == 512
        assert config.chunking.intermediate_overlap == 0
        assert config.retriever.similarity_top_k == 10
        assert config.retriever.rerank_top_k == 5
        assert config.embedding.dimension == 384

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'chunks'"):
            config_from_dict({"chunks": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="retriever.similarity_topk"):
            config_from_dict({"retriever": {"similarity_topk": 10}})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            config_from_dict({"retriever": {"strategy": "bm25"}})

    def test_invalid_chunking_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"chunking": {"parent_size": 100, "intermediate_size": 400}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_remote_provider_requires_base_url(self):
        with pytest.raises(ConfigError, match="base_url"):
            config_from_dict({"embedding": {"provider": "remote"}})

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "engine.json"
        path.write_text(
            json.dumps(
                {
                    "chunking": {"parent_size": 64, "intermediate_size": 16,
                                 "sub_intermediate_size": 8},
                    "retriever": {"similarity_top_k": 4, "rerank_top_k": 2,
                                  "strategy": "s2p"},
                }
            )
        )
        config = load_config(path)
        assert config.chunking.parent_size == 64
        assert config.retriever.strategy.value == "s2p"
        # untouched sections keep defaults
        assert config.embedding.provider == "hashed-bow"

    def test_value_types_checked(self):
        config = config_from_dict({"embedding": {"timeout": 5, "base_url": None}})
        assert config.embedding.timeout == 5.0 and isinstance(config.embedding.timeout, float)
        for section, key, value in [
            ("retriever", "similarity_top_k", 10.0),
            ("retriever", "rerank_top_k", True),
            ("chunking", "sub_intermediate_size", "8"),
            ("embedding", "timeout", "5"),
            ("paths", "corpus_dir", 3),
        ]:
            with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
                config_from_dict({section: {key: value}})
        assert config_from_dict({"embedding": {"dimension": 65536}}).embedding.dimension == 65536
        # There is no engine seed (``hrr synth --seed`` seeds the generator).
        with pytest.raises(ConfigError, match="unknown config key 'seed'"):
            config_from_dict({"seed": 9})


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """Isolated working directory with a small config and synthetic corpus."""
    monkeypatch.chdir(tmp_path)
    config = {
        "chunking": {
            "parent_size": 48,
            "intermediate_size": 16,
            "sub_intermediate_size": 8,
        },
        "embedding": {"dimension": 64},
        "retriever": {"similarity_top_k": 6, "rerank_top_k": 3},
    }
    Path("engine.json").write_text(json.dumps(config))
    code = main(
        ["synth", "--seed", "5", "--docs", "3", "--tokens", "220",
         "--needles", "4", "--out", "synth", "--config", "engine.json"]
    )
    assert code == EXIT_OK
    return tmp_path


class TestCliWorkflow:
    def test_synth_wrote_docs_and_queries(self, workdir):
        docs = sorted(p.name for p in (workdir / "synth" / "docs").glob("*.txt"))
        assert docs == ["doc000.txt", "doc001.txt", "doc002.txt"]
        lines = (workdir / "synth" / "queries.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_ingest_then_query_then_eval(self, workdir, capsys):
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "documents: 3" in out and "chunks[sentence]:" in out
        assert out.splitlines()[-1] == f"artifacts: {Path('corpus') / 'nodes.bin'}"

        assert main(["validate", "--config", "engine.json"]) == EXIT_OK
        assert "corpus OK" in capsys.readouterr().out

        from hrr.corpus import load_corpus
        from hrr.evaluation import load_query_set

        corpus = load_corpus("corpus")
        gold = load_query_set(workdir / "synth" / "queries.jsonl", corpus)[0]
        code = main(
            ["query", gold.query, "--strategy", "hrr", "--trace",
             "--config", "engine.json"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert gold.gold_parent in out
        assert "rerank_pool" in out  # trace printed

        code = main(
            ["eval", "--query-set", "synth/queries.jsonl", "--out", "results.json",
             "--config", "engine.json"]
        )
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "Results_Chunk_HRR (Proposed)" in table
        assert "Retriever" in table and "Hit Rate" in table
        rows = json.loads((workdir / "results.json").read_text())
        assert [r["strategy"] for r in rows] == ["hrr", "base", "c2p", "s2p"]
        for row in rows:
            assert 0.0 <= row["mrr"] <= row["hit_rate"] <= 1.0

    def test_query_k_one_returns_single_parent(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        capsys.readouterr()
        code = main(
            ["query", "anything at all", "--rerank-k", "1", "--format", "machine",
             "--config", "engine.json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["parents"]) == 1

    def test_query_k_bounds_per_level_hits(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        capsys.readouterr()
        code = main(
            ["query", "anything at all", "--k", "2", "--strategy", "s2p",
             "--trace", "--format", "machine", "--config", "engine.json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        stages = {t["stage"]: t["candidates"] for t in payload["trace"]}
        assert len(stages["sentence_hits"]) == 2

    def test_eval_single_strategy_single_row(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        capsys.readouterr()
        code = main(
            ["eval", "--query-set", "synth/queries.jsonl", "--strategies", "base",
             "--format", "machine", "--config", "engine.json"]
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["strategy"] == "base"

    def test_inspect_walks_ancestry(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        capsys.readouterr()
        code = main(["inspect", "doc000:p0.i0.s0", "--config", "engine.json"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "level=sentence" in out
        assert "level=intermediate" in out
        assert "level=parent" in out

    def test_ingest_rerun_byte_identical(self, workdir):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        first = {
            p.name: p.read_bytes()
            for p in Path("corpus").iterdir()
        }
        main(["ingest", "synth/docs", "--config", "engine.json"])
        second = {
            p.name: p.read_bytes()
            for p in Path("corpus").iterdir()
        }
        assert first == second

    def test_byte_order_mark_is_not_part_of_the_document(self, workdir):
        """A file that starts with a UTF-8 byte order mark ingests to the
        bytes of the same file without it: the mark is no token and no text."""
        artifacts = {}
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            Path(name).mkdir()
            for doc in Path("synth/docs").glob("*.txt"):
                (Path(name) / doc.name).write_bytes(mark + doc.read_bytes())
            assert main(["ingest", name, "--config", "engine.json"]) == EXIT_OK
            artifacts[name] = {
                p.name: p.read_bytes()
                for p in Path("corpus").iterdir()
            }
        assert artifacts["bom"] == artifacts["plain"]

    def test_bad_byte_after_a_byte_order_mark_is_named_by_file_offset(self, workdir, capsys):
        Path("marked").mkdir()
        Path("marked/doc.txt").write_bytes(b"\xef\xbb\xbfCaf\xe9.\n")
        capsys.readouterr()
        assert main(["ingest", "marked", "--config", "engine.json"]) == EXIT_IO
        assert "doc.txt: not valid UTF-8 (invalid continuation byte at byte 6)" in (
            capsys.readouterr().err)

    def test_documents_keep_their_line_ends(self, workdir):
        """A document is stored as its file's bytes, ``\\r\\n`` and lone
        ``\\r`` included, so a gold span taken from the file names them."""
        lines = [f"Line {i} holds the word{i} and some more words here." for i in range(12)]
        data = "".join(line + ("\r\n", "\r")[i % 2] for i, line in enumerate(lines)).encode()
        Path("crlf").mkdir()
        Path("crlf/lines.txt").write_bytes(data)
        assert main(["ingest", "crlf", "--config", "engine.json"]) == EXIT_OK
        corpus = load_corpus("corpus")
        assert corpus.documents["lines"] == data
        start = data.index(b"word10")
        Path("q.jsonl").write_text(json.dumps(
            {"query": "word10", "gold_doc_id": "lines", "gold_char_span": [start, start + 6]}))
        gold = load_query_set("q.jsonl", corpus)[0].gold_parent
        begin, end = corpus.get(gold).char_span
        assert begin <= start < start + 6 <= end
        assert "word10" in corpus.chunk_text(gold)

    def test_validate_reports_each_drifted_count(self, workdir, capsys):
        """Counts raised by one along a branch keep every token sum, so the
        corpus loads, and the recount names each of them."""
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        ids = nodes.id_list()
        edited = ["doc000:p0", "doc000:p0.i0", "doc000:p0.i0.s0", "doc000:p0.i0.c0"]
        counts = nodes.columns["token_count"]
        stored = {chunk_id: int(counts[ids.index(chunk_id)]) for chunk_id in edited}
        for chunk_id in edited:
            counts[ids.index(chunk_id)] += 1
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["validate", "--config", "engine.json"]) == EXIT_ERROR
        assert capsys.readouterr().out.splitlines() == [
            *(f"TokenCountDrift({chunk_id}: stored {n + 1}, counted {n})"
              for chunk_id, n in stored.items()),
            "4 violations",
        ]


    def test_validate_reports_a_document_changed_after_ingest(self, workdir, capsys):
        """A document's bytes changed in the file, its spans still whole,
        load and query as before; ``hrr validate`` names the document whose
        sha256 is not the one ingest recorded, in one violation line."""
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        recorded = nodes.header["document_sha256"][1]
        assert recorded == hashlib.sha256(nodes.documents[1]).hexdigest()
        at = nodes.documents[1].index(b"a")
        nodes.documents[1] = nodes.documents[1][:at] + b"e" + nodes.documents[1][at + 1 :]
        _write_nodes(path, nodes)
        found = hashlib.sha256(nodes.documents[1]).hexdigest()
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_OK
        capsys.readouterr()
        assert main(["validate", "--config", "engine.json"]) == EXIT_ERROR
        assert capsys.readouterr().out.splitlines() == [
            f"DocumentDigestMismatch({nodes.header['documents'][1]}: recorded sha256 "
            f"{recorded}, its bytes hash to {found})",
            "1 violations",
        ]

    def test_cold_load_and_query_build_no_chunk_node(self, workdir, monkeypatch, capsys):
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        query = load_query_set(workdir / "synth" / "queries.jsonl", load_corpus("corpus"))[0].query
        built = []
        original = ChunkNode.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["id"])
            original(self, *args, **kwargs)

        monkeypatch.setattr(ChunkNode, "__init__", counted)
        ctx = load_context(load_config("engine.json"))
        assert built == []
        for argv in (["query", query], ["query", query, "--trace", "--format", "machine"]):
            assert main([*argv, "--config", "engine.json"]) == EXIT_OK
        assert built == []
        ctx.corpus.get(next(ctx.corpus.ids_of(ctx.corpus.rows_at(Level.PARENT))))  # the count sees a build
        assert len(built) == 1

    def test_validate_and_inspect_read_no_vector_block(self, workdir, monkeypatch, capsys):
        """``hrr validate`` and ``hrr inspect`` read the corpus's blocks and
        the footer, and no byte of the levels' vectors; ``hrr query`` reads
        them all."""
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        path = Path("corpus") / "nodes.bin"
        data = path.read_bytes()
        # The vectors end where the footer, its length and its magic begin.
        end = len(data) - 12 - int.from_bytes(data[-12:-8], "little")
        vectors = range(end - len(_read_nodes(path).vectors), end)
        assert len(vectors) > 0
        reads = []

        class Spy:
            """A file whose reads are recorded as byte ranges."""

            def __init__(self, fh):
                self._fh = fh

            def read(self, n=-1):
                start = self._fh.tell()
                data = self._fh.read(n)
                reads.append(range(start, start + len(data)))
                return data

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        monkeypatch.setattr(corpus_module, "open", lambda *a: Spy(open(*a)), raising=False)
        for argv, reads_vectors in ((["validate"], False), (["inspect", "doc000:p0.i0.s0"], False),
                                    (["query", "x"], True)):
            reads.clear()
            assert main([*argv, "--config", "engine.json"]) == EXIT_OK
            overlaps = [r for r in reads if r.start < vectors.stop and vectors.start < r.stop]
            assert bool(overlaps) is reads_vectors, argv
            assert reads[0].start == 0 and any(r.stop == len(data) for r in reads), argv
        capsys.readouterr()

    def test_ingest_builds_no_chunk_node(self, workdir, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("ingest built a ChunkNode")

        monkeypatch.setattr(ChunkNode, "__init__", refuse)
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK

    #: sha256 of every artifact the workdir ingest writes (side tier
    #: included). Any change to chunking, serialization or the index format
    #: shows up here. The digest moved when the levels' vectors joined
    #: ``nodes.bin``: its corpus part is the bytes it held before, and the
    #: vectors are the bodies of the four ``<level>.idx`` files it replaced.
    #: It moved again with format v5, which stores the node columns, row
    #: lengths and counts at their data's width and each document's sha256:
    #: the same columns, ids and documents, and counts that decode to the
    #: v4 file's values bit for bit.
    GOLDEN_DIGESTS = {
        "corpus/nodes.bin": "7903f0482e3ae14e7da48a4a3470adfbeb5a230915e6cac9a9d4bf4bbe0708ea",
    }

    def test_ingest_artifacts_match_golden_digests(self, workdir):
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        written = sorted(p.as_posix() for p in Path("corpus").iterdir())
        assert written == sorted(self.GOLDEN_DIGESTS)
        digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in written}
        assert digests == self.GOLDEN_DIGESTS

    def test_local_commands_never_import_requests(self, workdir):
        """Only a remote provider needs ``requests``; a local ingest and
        query run without loading it."""
        script = (
            "import sys\n"
            "from hrr.cli import main\n"
            "codes = [main(['ingest', 'synth/docs', '--config', 'engine.json']),\n"
            "         main(['query', 'which permit', '--config', 'engine.json'])]\n"
            "print(codes, 'requests' in sys.modules)\n"
        )
        src = str(Path(hrr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=workdir, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"[{EXIT_OK}, {EXIT_OK}] False"


class TestCliErrors:
    def test_unknown_strategy_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["query", "x", "--strategy", "bm25", "--config", "engine.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["query", "x", "--strategy", "bm25"],
        ["query", "x", "--k", "abc"],
        ["query", "x", "--format", "xml"],
        ["query"],
        ["frobnicate"],
    ], ids=["strategy", "k", "format", "no-query", "subcommand"])
    def test_usage_error_exits_2_in_one_line(self, workdir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", "engine.json"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: " in err, err

    def test_unknown_eval_strategy_names_the_known_ones(self, workdir, capsys):
        code = main(["eval", "--strategies", "hrr,foo", "--config", "engine.json"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: each of --strategies must be one of "
                       "['hrr', 'base', 'c2p', 's2p'], got 'foo'\n")

    def test_corpus_without_side_tier_fails_before_the_first_query(
        self, workdir, capsys, monkeypatch
    ):
        config = json.loads(Path("engine.json").read_text())
        config["chunking"]["sub_intermediate_size"] = None
        Path("no_side_tier.json").write_text(json.dumps(config))
        assert main(["ingest", "synth/docs", "--config", "no_side_tier.json"]) == EXIT_OK
        calls = []
        real = evaluation.retrieve
        monkeypatch.setattr(evaluation, "retrieve", lambda *a: calls.append(a) or real(*a))
        capsys.readouterr()
        code = main(["eval", "--query-set", "synth/queries.jsonl", "--config", "no_side_tier.json"])
        assert code == EXIT_IO and calls == []
        err = capsys.readouterr().err
        assert err == ("error: strategy 'c2p' searches the sub_intermediate level, which this "
                       "corpus lacks; ingest with chunking.sub_intermediate_size set to build it\n")
        code = main(["query", "x", "--strategy", "c2p", "--config", "no_side_tier.json"])
        assert code == EXIT_IO and capsys.readouterr().err == err

    def test_byte_order_mark_starting_a_config_is_dropped(self, workdir):
        Path("bom.json").write_bytes(codecs.BOM_UTF8 + Path("engine.json").read_bytes())
        assert main(["ingest", "synth/docs", "--config", "bom.json"]) == EXIT_OK

    def test_byte_order_mark_starting_a_query_set_is_dropped(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        lines = (workdir / "synth" / "queries.jsonl").read_bytes().splitlines(keepends=True)
        Path("bom.jsonl").write_bytes(codecs.BOM_UTF8 + b"".join(lines))
        capsys.readouterr()
        assert main(["eval", "--query-set", "bom.jsonl", "--config", "engine.json"]) == EXIT_OK
        # Line numbers still count from the file's first line.
        Path("bom.jsonl").write_bytes(codecs.BOM_UTF8 + lines[0] + b"{\n")
        capsys.readouterr()
        assert main(["eval", "--query-set", "bom.jsonl", "--config", "engine.json"]) == EXIT_IO
        assert "bom.jsonl line 2: malformed record" in capsys.readouterr().err

    def test_repeated_eval_strategy_is_config_error(self, workdir, capsys):
        # Checked before loading, so no ingest is needed to reach it.
        code = main(["eval", "--strategies", "hrr,base,hrr", "--config", "engine.json"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'hrr' more than once" in err and err.count("\n") == 1

    def test_bad_config_exit_code(self, workdir):
        Path("broken.json").write_text('{"nope": 1}')
        assert main(["validate", "--config", "broken.json"]) == EXIT_CONFIG

    def test_missing_docs_dir(self, workdir):
        assert main(["ingest", "missing_dir", "--config", "engine.json"]) == EXIT_IO

    def test_empty_docs_dir(self, workdir):
        Path("empty").mkdir()
        assert main(["ingest", "empty", "--config", "engine.json"]) == EXIT_IO

    def test_non_utf8_document_is_io_error(self, workdir, capsys):
        Path("synth/docs/latin1.txt").write_bytes(b"Caf\xe9 au lait.\n")
        capsys.readouterr()
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "latin1.txt: not valid UTF-8" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", " \n\t\n "], ids=["empty", "whitespace"])
    def test_blank_document_is_io_error(self, workdir, capsys, text):
        Path("synth/docs/blank.txt").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "blank.txt: no text to chunk" in err and err.count("\n") == 1

    @pytest.mark.parametrize("query", ["", "   ", "\n\t"])
    def test_blank_query_is_usage_error_before_loading(self, workdir, capsys, query):
        # No ingest ran, so loading any artifact would exit 3.
        capsys.readouterr()
        assert main(["query", query, "--config", "engine.json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "query text is blank" in err and err.count("\n") == 1

    def test_non_utf8_query_is_usage_error_before_loading(self, workdir, capsys):
        # Python decodes the argument byte 0xff as the lone surrogate U+DCFF.
        capsys.readouterr()
        assert main(["query", "caf\udcff", "--config", "engine.json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "query text is not valid UTF-8" in err and err.count("\n") == 1

    def test_non_utf8_query_argument_exits_2_in_one_line(self, workdir):
        src = str(Path(hrr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "hrr.cli", "query", b"caf\xff", "--config", "engine.json"],
            cwd=workdir, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == b"config error: the query text is not valid UTF-8\n"

    def test_non_utf8_file_name_is_io_error_before_writing(self, workdir, capsys):
        Path(os.fsdecode(b"synth/docs/d\xff.txt")).write_text("Some text.\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "d\\xff.txt: the file name is not valid UTF-8" in err and err.count("\n") == 1
        assert not Path("corpus").exists()

    def test_infeasible_synth_spec_is_usage_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["synth", "--needles", "1000", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_directory_named_like_a_document_is_io_error(self, workdir, capsys):
        Path("synth/docs/folder.txt").mkdir()
        capsys.readouterr()
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "folder.txt: cannot read" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--k", "--rerank-k"])
    def test_zero_top_k_flag_is_config_error(self, workdir, capsys, flag):
        # No artifacts exist, so a flag that was silently ignored would exit 3.
        assert main(["query", "x", flag, "0", "--config", "engine.json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_query_before_ingest_is_io_error(self, workdir):
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO

    def test_missing_gold_aborts_eval(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        capsys.readouterr()
        Path("bad_queries.jsonl").write_text(
            '{"query": "x", "gold_parent_id": "ghost:p0"}\n'
        )
        code = main(
            ["eval", "--query-set", "bad_queries.jsonl", "--config", "engine.json"]
        )
        assert code == EXIT_ERROR

    def test_wrong_type_config_value_is_config_error(self, workdir, capsys):
        config = json.loads(Path("engine.json").read_text())
        config["retriever"]["similarity_top_k"] = "10"
        Path("typed.json").write_text(json.dumps(config))
        assert main(["query", "x", "--config", "typed.json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "retriever.similarity_top_k must be an integer" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["query", "x"], ["ingest", "synth/docs"], ["validate"]])
    @pytest.mark.parametrize(
        "section, settings, message",
        [
            ("rerank", {"mix_lambda": float("nan")}, "rerank.mix_lambda must be finite"),
            ("rerank", {"provider": "remote", "base_url": "http://127.0.0.1:9", "timeout": 0},
             "rerank.timeout must be a positive number"),
            ("rerank", {"provider": "remote", "base_url": "http://127.0.0.1:9", "retries": -1},
             "rerank.retries must be >= 0"),
            ("embedding", {"provider": "remote", "base_url": "http://127.0.0.1:9",
                           "batch_size": 0}, "embedding.batch_size must be >= 1"),
            ("embedding", {"max_in_flight": 0}, "embedding.max_in_flight must be >= 1"),
            ("embedding", {"provider": "remote", "base_url": "foo"},
             "embedding.base_url must be an http:// or https:// URL"),
            ("rerank", {"provider": "remote", "base_url": "127.0.0.1:9"},
             "rerank.base_url must be an http:// or https:// URL"),
            ("embedding", {"dimension": 1 << 40},
             "embedding.dimension must be between 1 and 65536, got 1099511627776"),
            ("embedding", {"dimension": 65537},
             "embedding.dimension must be between 1 and 65536, got 65537"),
            ("rerank", {"timeout": 10**400}, "rerank.timeout is an integer beyond float range"),
            ("rerank", {"mix_lambda": 10**400},
             "rerank.mix_lambda is an integer beyond float range"),
        ],
        ids=["nan-mix-lambda", "zero-timeout", "negative-retries", "zero-batch", "zero-in-flight",
             "schemeless-embed-url", "schemeless-rerank-url", "huge-dimension",
             "dimension-past-u2-columns", "timeout-past-float", "mix-lambda-past-float"],
    )
    def test_out_of_range_provider_setting_is_config_error(
        self, workdir, capsys, command, section, settings, message
    ):
        config = json.loads(Path("engine.json").read_text())
        config.setdefault(section, {}).update(settings)
        Path("bad.json").write_text(json.dumps(config))  # NaN is written as a bare NaN
        capsys.readouterr()
        assert main([*command, "--config", "bad.json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("key, command", [
        ("corpus_dir", ["query", "x"]),
        ("index_dir", ["ingest", "synth/docs"]),
        ("query_set", ["eval"]),
    ])
    def test_nul_in_a_path_is_config_error_before_any_file(self, workdir, capsys, key, command):
        if command[0] != "ingest":
            main(["ingest", "synth/docs", "--config", "engine.json"])
        config = json.loads(Path("engine.json").read_text())
        config["paths"] = {key: "bad\u0000name"}
        Path("nul.json").write_text(json.dumps(config))
        files = sorted(Path().rglob("*"))
        capsys.readouterr()
        assert main([*command, "--config", "nul.json"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"paths.{key}" in captured.err
        assert sorted(Path().rglob("*")) == files

    def test_retired_index_dir_is_config_error(self, workdir, capsys):
        """Ingest writes the vectors into ``paths.corpus_dir``'s one file, so
        a config that still names an index directory is refused, in one
        line, before any file is written."""
        config = json.loads(Path("engine.json").read_text())
        config["paths"] = {"corpus_dir": "corpus", "index_dir": "indexes"}
        Path("old.json").write_text(json.dumps(config))
        files = sorted(Path().rglob("*"))
        capsys.readouterr()
        assert main(["ingest", "synth/docs", "--config", "old.json"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: 'paths.index_dir' is retired: ingest writes the corpus and its "
            "vectors as one file in paths.corpus_dir; remove the key\n")
        assert sorted(Path().rglob("*")) == files

    def test_malformed_query_set_line_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        good = (workdir / "synth" / "queries.jsonl").read_text().splitlines()[0]
        Path("queries.jsonl").write_text(good + '\n{"query": "x", "gold_parent_id"\n')
        capsys.readouterr()
        code = main(["eval", "--query-set", "queries.jsonl", "--config", "engine.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "queries.jsonl line 2: malformed record" in err and err.count("\n") == 1

    @pytest.mark.parametrize("query", [5, "", ["a"], None, " \t\n"],
                             ids=["number", "empty", "list", "null", "whitespace"])
    def test_query_without_text_is_io_error(self, workdir, capsys, query):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        good = json.loads((workdir / "synth" / "queries.jsonl").read_text().splitlines()[0])
        Path("queries.jsonl").write_text(
            json.dumps(good) + "\n" + json.dumps(dict(good, query=query)) + "\n"
        )
        capsys.readouterr()
        code = main(["eval", "--query-set", "queries.jsonl", "--config", "engine.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "queries.jsonl line 2: malformed record" in err and err.count("\n") == 1

    def test_query_set_not_utf8_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        good = (workdir / "synth" / "queries.jsonl").read_bytes().splitlines()[0]
        Path("queries.jsonl").write_bytes(good + b"\n" + b"\xff\xfe" + good + b"\n")
        capsys.readouterr()
        code = main(["eval", "--query-set", "queries.jsonl", "--config", "engine.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "queries.jsonl line 2: malformed record" in err and "decode byte 0xff" in err
        assert err.count("\n") == 1

    def test_query_with_lone_surrogate_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        good = json.loads((workdir / "synth" / "queries.jsonl").read_text().splitlines()[0])
        bad = json.dumps(dict(good, query="x\udc80y"))
        assert "\\udc80" in bad
        Path("queries.jsonl").write_text(json.dumps(good) + "\n" + bad + "\n")
        capsys.readouterr()
        code = main(["eval", "--query-set", "queries.jsonl", "--config", "engine.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "queries.jsonl line 2: malformed record" in err and err.count("\n") == 1

    def test_sentence_linked_to_its_grandparent_is_io_error(self, workdir, capsys):
        """A node file whose sentences skip their intermediate."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        parent = nodes.columns["parent"]
        sentences = nodes.columns["level"] == list(Level).index(Level.SENTENCE)
        parent[sentences] = parent[parent[sentences]]
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["query", "x", "--strategy", "hrr", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "nodes.bin" in err and "not at the level above" in err and err.count("\n") == 1

    @pytest.mark.parametrize("name", TILING_CORRUPTIONS)
    def test_spans_that_do_not_tile_are_io_errors(self, workdir, capsys, name):
        """A node file whose spans break one level's tiling of the level above."""
        edit, message = TILING_CORRUPTIONS[name]
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        edit(nodes)
        _write_nodes(path, nodes)
        for command in (["query", "x"], ["validate"]):
            capsys.readouterr()
            assert main([*command, "--config", "engine.json"]) == EXIT_IO
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert "nodes.bin" in captured.err and message in captured.err

    def test_malformed_corpus_line_is_io_error(self, workdir, capsys):
        """A node file cut in the middle of its columns."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        nodes = Path("corpus") / "nodes.bin"
        data = nodes.read_bytes()
        nodes.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "nodes.bin" in err and "do not fill" in err and err.count("\n") == 1

    def test_corpus_truncated_at_line_boundary_is_io_error(self, workdir, capsys):
        """A whole, valid corpus of half the documents written over the ingested one."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        corpus = load_corpus("corpus")
        half = {doc_id: data.decode("utf-8")
                for doc_id, data in list(corpus.documents.items())[: len(corpus.documents) // 2]}
        save_corpus(build_corpus(half, corpus.config), "corpus")
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "no vectors follow the corpus" in err and err.count("\n") == 1

    @staticmethod
    def _edit_level(level: Level, edit) -> None:
        """Store ``level``'s CSR vectors in the ingested file as float
        values, not as their counts, and apply ``edit`` to the bytes stored
        for the level: its row lengths, columns and values."""
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        found = level_blocks(nodes)
        for entry, blocks in zip(nodes.footer["levels"], found):
            if entry["level"] == level.value:
                lengths, _, counts = blocks
                squares = np.square(counts.astype(np.float64))
                starts = np.cumsum(lengths, dtype=np.int64) - lengths
                norms = np.sqrt(np.add.reduceat(squares, starts))
                blocks[2] = (counts / np.repeat(norms, lengths)).astype("<f4")
                del entry["counts"]
                data = bytearray(b"".join(block.tobytes() for block in blocks))
                edit(data)
                blocks[:] = [np.frombuffer(data, "u1")]
        set_level_blocks(nodes, found)
        _write_nodes(path, nodes)

    def test_non_finite_index_row_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        # The parent level's last value: a little-endian float32 NaN.
        self._edit_level(Level.PARENT, lambda data: data.__setitem__(
            slice(-4, None), bytes.fromhex("0000c07f")))
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "nodes.bin" in err and "not finite" in err and err.count("\n") == 1

    def test_index_row_made_not_unit_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        # An exponent bit of the sentence level's last value: times or over 4.
        self._edit_level(Level.SENTENCE, lambda data: data.__setitem__(-1, data[-1] ^ 0x01))
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "nodes.bin" in err and "is not unit" in err and err.count("\n") == 1

    def test_v2_corpus_directory_asks_for_reingest(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        write_v2_corpus(Path("corpus"))
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == (f"error: {Path('corpus') / 'nodes.bin'}: corpus format version 2 is not "
                       f"read; re-run ingest\n")

    def test_v3_corpus_asks_for_reingest(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        write_v3_corpus(Path("corpus"))
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {Path('corpus') / 'nodes.bin'}: corpus format version 3 is not read; "
            f"re-run ingest\n")

    def test_format_v4_file_asks_for_reingest(self, workdir, capsys):
        """A ``nodes.bin`` of format v4, whose blocks were all of one width,
        asks for a re-ingest in one line."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        nodes.header["version"] = 4
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {path}: corpus format version 4 is not read; re-run ingest\n")

    @staticmethod
    def _edit_counts(edit) -> None:
        """Apply ``edit(nodes, entry, blocks)`` to the ingested file's
        sentence level, a counts level: ``blocks`` are its row lengths,
        columns and counts, as arrays that are written back."""
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        found = level_blocks(nodes)
        for entry, blocks in zip(nodes.footer["levels"], found):
            if entry["level"] == "sentence":
                assert entry["counts"] == "u1"
                edit(nodes, entry, blocks)
        set_level_blocks(nodes, found)
        _write_nodes(path, nodes)

    @staticmethod
    def _empty_a_row(nodes, entry, blocks) -> None:
        """Drop the first row's entries, and count the non-zeros left, so the
        row is empty and every other rule holds."""
        lengths, columns, counts = blocks
        first = int(lengths[0])
        blocks[1:] = [columns[first:], counts[first:]]
        lengths[0] = 0
        entry["nnz"] -= first

    @pytest.mark.parametrize("edit, message", [
        (lambda nodes, entry, blocks: blocks[2].__setitem__(-1, 0), "a stored count is 0"),
        ("_empty_a_row", "a row of counts is empty"),
        (lambda nodes, entry, blocks: blocks[0].__setitem__(-1, blocks[0][-1] - 1),
         "row pointers do not rise from 0 to the"),
        (lambda nodes, entry, blocks: entry.update(counts="<f8"),
         "the sentence level's counts dtype '<f8' is not one of u1, <u2, <u4, <u8"),
        (lambda nodes, entry, blocks: entry.update(lengths="u2"),
         "the sentence level's lengths dtype 'u2' is not one of u1, <u2, <u4, <u8"),
        (lambda nodes, entry, blocks: nodes.columns["parent"].__setitem__(
            -1, len(nodes.columns["parent"]) + 4), "its parent row is not an earlier row"),
        (lambda nodes, entry, blocks: blocks.__setitem__(2, blocks[2][:-3]),
         "its header's sizes do not fill the file"),
    ], ids=["count-zero", "empty-row", "lengths-short-of-nnz", "count-dtype", "lengths-dtype",
            "parent-past-the-rows", "counts-truncated"])
    def test_malformed_counts_level_is_io_error(self, workdir, capsys, edit, message):
        """Each block of a counts level fails closed: ``hrr query`` exits 3
        with one line that names the file, and no traceback."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        self._edit_counts(getattr(self, edit) if isinstance(edit, str) else edit)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {Path('corpus') / 'nodes.bin'}: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("widths, message", [
        ({"doc": "<i4"}, "the doc column's dtype '<i4' is not one of u1, <u2, <u4, <u8"),
        ({"hard_split": "bool"}, "the hard_split column's dtype 'bool' is not one of"),
    ], ids=["signed", "not-a-width"])
    def test_node_column_dtype_not_on_the_list_is_io_error(self, workdir, capsys, widths,
                                                           message):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        _write_nodes(path, _read_nodes(path), widths=widths)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["query", "x"], ["eval"]])
    def test_v4_layout_asks_for_reingest(self, workdir, capsys, command):
        """The layout of the earlier ingests, a ``nodes.bin`` of the corpus
        alone beside one ``<level>.idx`` per level in ``indexes/``, asks
        for a re-ingest in one line; the ``.idx`` files are not read."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        nodes.vectors, nodes.footer = b"", None
        _write_nodes(path, nodes)
        Path("indexes").mkdir()
        (Path("indexes") / "sentence.idx").write_bytes(b"HRRIDX5\n")
        capsys.readouterr()
        assert main([*command, "--config", "engine.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {path}: no vectors follow the corpus (an ingest before this format kept "
            "them in <level>.idx files, which are not read); re-run ingest\n")
        assert main(["validate", "--config", "engine.json"]) == EXIT_OK

    def test_index_renamed_to_another_level_is_io_error(self, workdir, capsys):
        """Sentence vectors whose footer entry names the parent level, sizes
        kept whole, are refused by the parent level's chunk count."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        for entry in nodes.footer["levels"]:
            entry["level"] = {"parent": "sentence", "sentence": "parent"}.get(
                entry["level"], entry["level"])
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {path}: 18 rows do not match 61 ids\n")

    def test_missing_index_for_corpus_level_is_io_error(self, workdir, capsys):
        """A file that stores no vectors for a level its corpus holds, here
        the side tier, is refused at load under every strategy, searched or
        not, with one line that names it and asks for a re-ingest."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        side = nodes.footer["levels"].pop()
        assert side["level"] == "sub_intermediate"
        nodes.vectors = nodes.vectors[: -sum(n * np.dtype(dtype).itemsize for dtype, n in
                                             level_dtypes(side, nodes.footer["dimension"]))]
        _write_nodes(path, nodes)
        capsys.readouterr()
        for strategy in ("hrr", "base", "c2p", "s2p"):
            assert main(["query", "x", "--strategy", strategy, "--config", "engine.json"]) \
                == EXIT_IO
            assert capsys.readouterr().err == (
                f"error: {path}: no vectors for the sub_intermediate level its corpus holds; "
                "re-run ingest\n")

    def test_duplicate_chunk_id_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        table = nodes.id_list()
        table[-1] = table[0]
        nodes.ids = "\0".join(table).encode("utf-8")
        nodes.header["ids_bytes"] = len(nodes.ids)
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{path}: id {table[0]!r} names more than one node" in err and err.count("\n") == 1

    def test_non_utf8_document_after_ascii_ones_is_io_error(self, workdir, capsys):
        """A corpus skips decoding a document that is all ASCII, and still
        refuses one that is not UTF-8 after ASCII ones."""
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        assert len(nodes.documents) == 3 and all(data.isascii() for data in nodes.documents)
        last = nodes.header["documents"][-1]
        nodes.documents[-1] = nodes.documents[-1][:5] + b"\xff" + nodes.documents[-1][6:]
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {path}: document {last!r} is not UTF-8 (invalid start byte at byte 5); "
            "re-run ingest\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda ids: ids.rsplit(b"\0", 1)[0], "the id table splits at NUL into 257 ids, not 258"),
        (lambda ids: ids.replace(b"\0", b"\0\0", 1),
         "the id table splits at NUL into 259 ids, not 258"),
        (lambda ids: ids[:3] + b"\xc3" + ids[4:],
         "the id table is not UTF-8 (invalid continuation byte at byte 3)"),
    ], ids=["one-short", "one-more", "not-utf8"])
    def test_broken_id_table_is_io_error(self, workdir, capsys, edit, message):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        path = Path("corpus") / "nodes.bin"
        nodes = _read_nodes(path)
        nodes.ids = edit(nodes.ids)
        nodes.header["ids_bytes"] = len(nodes.ids)
        _write_nodes(path, nodes)
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: {message}; re-run ingest\n"

    def test_reingest_over_a_v2_corpus_directory_leaves_one_file(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        write_v2_corpus(Path("corpus"))
        assert sorted(p.name for p in Path("corpus").iterdir()) == ["documents.jsonl", "nodes.bin"]
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        assert sorted(p.name for p in Path("corpus").iterdir()) == ["nodes.bin"]
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_OK

    def test_stale_side_tier_index_is_ignored(self, workdir, capsys):
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        config = json.loads(Path("engine.json").read_text())
        config["chunking"]["sub_intermediate_size"] = None
        Path("no_side_tier.json").write_text(json.dumps(config))
        assert main(["ingest", "synth/docs", "--config", "no_side_tier.json"]) == EXIT_OK
        capsys.readouterr()
        assert main(["query", "x", "--config", "no_side_tier.json"]) == EXIT_OK
        capsys.readouterr()
        code = main(["query", "x", "--strategy", "c2p", "--config", "no_side_tier.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "sub_intermediate" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["query", "x"], ["eval", "--query-set", "synth/queries.jsonl"]])
    def test_index_dimension_differs_from_config_is_io_error(self, workdir, capsys, command):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        config = json.loads(Path("engine.json").read_text())
        config["embedding"]["dimension"] = 32
        Path("dim32.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert main([*command, "--config", "dim32.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "64" in err and "32" in err and err.count("\n") == 1

    def test_index_from_other_embedder_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        config = json.loads(Path("engine.json").read_text())
        config["embedding"] = {
            "provider": "remote",
            "base_url": "http://127.0.0.1:9",  # discard port: a request would exit 4
            "dimension": 64,
            "retries": 0,
        }
        Path("remote.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["query", "x", "--config", "remote.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "nodes.bin" in err and "'hashed-bow'" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "artifact, command",
        [(Path("corpus") / "nodes.bin", ["query", "x"]),
         (Path("corpus") / "nodes.bin", ["validate"]),
         (Path("corpus") / "nodes.bin", ["inspect", "doc000:p0"])],
        ids=["chunks-query", "chunks-validate", "chunks-inspect"],
    )
    def test_directory_in_place_of_artifact_is_io_error(self, workdir, capsys, artifact, command):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        artifact.unlink()
        artifact.mkdir()
        capsys.readouterr()
        assert main([*command, "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert artifact.name in err and err.count("\n") == 1

    def test_query_set_directory_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        Path("queries_dir").mkdir()
        capsys.readouterr()
        assert main(["eval", "--query-set", "queries_dir", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "queries_dir" in err and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, workdir, capsys, kind):
        if kind == "directory":
            Path("bad_config").mkdir()
        else:
            Path("bad_config").write_bytes(b'{"embedding": {"dimension": 6\xff}}')
        assert main(["validate", "--config", "bad_config"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad_config" in err and err.count("\n") == 1

    def test_broken_rerank_stream_is_provider_error(self, workdir, capsys, monkeypatch):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        config = json.loads(Path("engine.json").read_text())
        config["rerank"] = {"provider": "remote", "base_url": "http://127.0.0.1:9",
                            "retries": 1}
        Path("remote.json").write_text(json.dumps(config))

        def post(self, *args, **kwargs):
            raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")

        monkeypatch.setattr(requests.Session, "post", post)
        capsys.readouterr()
        assert main(["query", "x", "--config", "remote.json"]) == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert "after 2 attempts" in err and err.count("\n") == 1

    def test_unreachable_remote_provider_exit_code(self, workdir):
        config = json.loads(Path("engine.json").read_text())
        config["embedding"] = {
            "provider": "remote",
            "base_url": "http://127.0.0.1:9",  # discard port, nothing listens
            "dimension": 64,
            "timeout": 0.2,
            "retries": 0,
        }
        Path("remote.json").write_text(json.dumps(config))
        assert main(["ingest", "synth/docs", "--config", "remote.json"]) == EXIT_PROVIDER


class TestReingestThatStops:
    """A re-ingest that stops part way leaves artifacts that answer as a
    whole ingest of the old text does, and one that finishes as a whole
    ingest of the new text does, never new text beside old vectors. The edit of one of three seed-42 documents, every
    "likely" made "zzqvx", keeps every chunk id, so nothing but the text
    tells the two ingests apart. It stops at each rename in turn, and at
    each level's embedding in turn. A new corpus beside old vectors scores
    hits by the old text's words and reranks them by the new text's, so
    the queries for both words tell it from either whole ingest."""

    @pytest.fixture()
    def answers(self, tmp_path, monkeypatch, capsys):
        """The synth documents, their edited copy and the answer of a whole
        ingest of each, with the old one's artifacts kept in ``old``."""
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--seed", "42", "--docs", "3", "--out", "synth"]) == EXIT_OK
        shutil.copytree("synth/docs", "edited")
        doc = Path("edited/doc001.txt")
        text = doc.read_text(encoding="utf-8")
        assert "likely" in text
        doc.write_text(text.replace("likely", "zzqvx"), encoding="utf-8")
        answers = {}
        for name, docs in (("new", "edited"), ("old", "synth/docs")):
            Path(name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["ingest", str(tmp_path / docs)]) == EXIT_OK
            answers[name] = self.answer(capsys)
            monkeypatch.chdir(tmp_path)
        assert answers["old"] != answers["new"]
        old, new = (load_corpus(Path(name) / "corpus") for name in ("old", "new"))
        assert list(old.ids_of(range(len(old)))) == list(new.ids_of(range(len(new))))
        return answers

    @staticmethod
    def answer(capsys) -> list[tuple[int, str]]:
        """What ``hrr query`` answers, trace included, for the new word and
        for the word it replaced."""
        answers = []
        for word in ("zzqvx", "likely"):
            capsys.readouterr()
            code = main(["query", word, "--trace", "--format", "machine"])
            answers.append((code, capsys.readouterr().out))
        return answers

    def reingest(self, tmp_path, monkeypatch, fault, name: str, value) -> bool:
        """Re-ingest the edited documents over a copy of the old artifacts
        with ``fault`` patched in; whether the fault fired."""
        work = tmp_path / f"{name}-{value}"
        shutil.copytree(tmp_path / "old", work)
        monkeypatch.chdir(work)
        fired = []
        with monkeypatch.context() as patched:
            fault(patched, fired)
            code = main(["ingest", str(tmp_path / "edited")])
        assert code == (EXIT_OK if not fired else fired[0]), (name, value)
        return bool(fired)

    def test_a_rename_that_fails_leaves_the_old(self, tmp_path, monkeypatch, capsys, answers):
        real = os.replace
        for n in itertools.count(1):
            def fault(patched, fired, n=n):
                calls = []

                def replace(src, dst):
                    calls.append(dst)
                    if len(calls) == n:
                        fired.append(EXIT_IO)
                        raise OSError(28, "No space left on device")
                    return real(src, dst)

                patched.setattr(os, "replace", replace)

            fired = self.reingest(tmp_path, monkeypatch, fault, "rename", n)
            assert self.answer(capsys) == answers["old" if fired else "new"], n
            if not fired:
                break

    def test_a_level_that_fails_to_embed_leaves_the_old(
        self, tmp_path, monkeypatch, capsys, answers,
    ):
        real = HashedBowEmbedder.embed_batch
        for k in itertools.count(1):
            def fault(patched, fired, k=k):
                calls = []

                def embed_batch(self, texts):
                    calls.append(len(texts))
                    if len(calls) == k:
                        fired.append(EXIT_PROVIDER)
                        raise ProviderUnavailableError("the embedder went away")
                    return real(self, texts)

                patched.setattr(HashedBowEmbedder, "embed_batch", embed_batch)

            fired = self.reingest(tmp_path, monkeypatch, fault, "embed", k)
            assert self.answer(capsys) == answers["old" if fired else "new"], k
            if not fired:
                break
