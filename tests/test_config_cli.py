"""Config loading rules and the CLI workflow end to end."""

import hashlib
import json
from pathlib import Path

import pytest

from hrr.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_IO, EXIT_OK, EXIT_PROVIDER, main
from hrr.config import config_from_dict, load_config
from hrr.errors import ConfigError


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
            for p in [*Path("corpus").iterdir(), *Path("indexes").iterdir()]
        }
        main(["ingest", "synth/docs", "--config", "engine.json"])
        second = {
            p.name: p.read_bytes()
            for p in [*Path("corpus").iterdir(), *Path("indexes").iterdir()]
        }
        assert first == second


    #: sha256 of every artifact the workdir ingest writes (side tier
    #: included). Any change to chunking, serialization or the index format
    #: shows up here.
    GOLDEN_DIGESTS = {
        "corpus/documents.jsonl": "c842a4834bd45e8b37e37d0826193bd941d9f58ff58952bf511ef9031d472b29",
        "corpus/chunks.jsonl": "69011d2057c96b97820465977578a8d98e9ad8e4230a4e67344f74f817297f6e",
        "indexes/parent.idx": "fb5b122264fb1e53ef081cb240ef47c1f09136fbc4c8bc3e9fb6dbf1cf789b40",
        "indexes/intermediate.idx": "d43bc84f554ef5b0a5ffb80a589969b05a7a98436538d2977e4099f90717805a",
        "indexes/sentence.idx": "3dce58924dd4cf239ee776d55e17d5021eb57481a633760d200766caa2f2f233",
        "indexes/sub_intermediate.idx": "2f9287d22eb11a74c85529cde4c5c5f0af1f1079b6dc3b14f0b38d500ad2f26c",
    }

    def test_ingest_artifacts_match_golden_digests(self, workdir):
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        written = sorted(
            p.as_posix() for p in [*Path("corpus").iterdir(), *Path("indexes").iterdir()]
        )
        assert written == sorted(self.GOLDEN_DIGESTS)
        digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in written}
        assert digests == self.GOLDEN_DIGESTS


class TestCliErrors:
    def test_unknown_strategy_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["query", "x", "--strategy", "bm25", "--config", "engine.json"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("command", [["query", "x"], ["ingest", "synth/docs"]])
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
        ],
        ids=["nan-mix-lambda", "zero-timeout", "negative-retries", "zero-batch", "zero-in-flight",
             "schemeless-embed-url", "schemeless-rerank-url"],
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

    def test_malformed_query_set_line_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        good = (workdir / "synth" / "queries.jsonl").read_text().splitlines()[0]
        Path("queries.jsonl").write_text(good + '\n{"query": "x", "gold_parent_id"\n')
        capsys.readouterr()
        code = main(["eval", "--query-set", "queries.jsonl", "--config", "engine.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "queries.jsonl line 2: malformed record" in err and err.count("\n") == 1

    def test_malformed_corpus_line_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        chunks = Path("corpus") / "chunks.jsonl"
        data = chunks.read_text()
        chunks.write_text(data[: len(data) // 2])  # cut mid-record
        lines = chunks.read_text().count("\n") + 1
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"chunks.jsonl line {lines}: malformed record" in err and err.count("\n") == 1

    def test_corpus_truncated_at_line_boundary_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        chunks = Path("corpus") / "chunks.jsonl"
        lines = chunks.read_text().splitlines(keepends=True)
        chunks.write_text("".join(lines[: len(lines) // 2]))
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "do not match the corpus" in err and err.count("\n") == 1

    def test_non_finite_index_row_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        snapshot = Path("indexes") / "parent.idx"
        data = bytearray(snapshot.read_bytes())
        data[-4:] = bytes.fromhex("0000c07f")  # little-endian float32 NaN
        snapshot.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["query", "x", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "parent.idx" in err and "not finite" in err and err.count("\n") == 1

    def test_stale_side_tier_index_is_ignored(self, workdir, capsys):
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        config = json.loads(Path("engine.json").read_text())
        config["chunking"]["sub_intermediate_size"] = None
        Path("no_side_tier.json").write_text(json.dumps(config))
        assert main(["ingest", "synth/docs", "--config", "no_side_tier.json"]) == EXIT_OK
        assert not (Path("indexes") / "sub_intermediate.idx").exists()  # removed by the second
        capsys.readouterr()
        assert main(["query", "x", "--config", "no_side_tier.json"]) == EXIT_OK
        capsys.readouterr()
        code = main(["query", "x", "--strategy", "c2p", "--config", "no_side_tier.json"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "sub_intermediate" in err and err.count("\n") == 1

    def test_missing_index_for_corpus_level_is_io_error(self, workdir, capsys):
        main(["ingest", "synth/docs", "--config", "engine.json"])
        (Path("indexes") / "sub_intermediate.idx").unlink()
        capsys.readouterr()
        # hrr never searches the side tier, yet the corpus has it, so loading fails.
        assert main(["query", "x", "--strategy", "hrr", "--config", "engine.json"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "sub_intermediate.idx" in err and err.count("\n") == 1

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
        assert ".idx" in err and "'hashed-bow'" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "artifact, command",
        [(Path("indexes") / "parent.idx", ["query", "x"]),
         (Path("corpus") / "chunks.jsonl", ["query", "x"]),
         (Path("corpus") / "chunks.jsonl", ["validate"])],
        ids=["index-query", "chunks-query", "chunks-validate"],
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
