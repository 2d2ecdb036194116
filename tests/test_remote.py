"""Remote embed/rerank clients against an in-process stub service."""

import json
from pathlib import Path

import numpy as np
import pytest
import requests

from hrr.cli import EXIT_IO, EXIT_OK, main
from hrr.embedding import HashedBowEmbedder, RemoteEmbedder, embed_batch
from hrr.engine import context_for
from hrr.config import EngineConfig
from hrr.corpus import Level, load_artifacts, save_corpus
from hrr.errors import (
    ConfigError,
    DimensionMismatchError,
    ProviderUnavailableError,
    SnapshotFormatError,
)
from hrr.evaluation import compare
from hrr.index import build_index
from hrr.rerank import (
    FALLBACK_PASSTHROUGH,
    LexicalOverlapReranker,
    RemoteReranker,
    RerankRequest,
    rerank,
)
from hrr.retrievers import Strategy
from hrr.synth import CorpusSpec, generate

from conftest import TOY_CHUNKING
from reads import index_ids, search_hits
from test_corpus import _read_nodes
from test_index import assert_hits_are, naive_top_k
from stub_services import (
    MODE_BAD_REQUEST,
    MODE_HANG,
    MODE_SERVER_ERROR,
    MODE_WRONG_DIMENSION,
    StubServices,
)

DIM = 64


class TestRemoteEmbedder:
    def test_matches_local_provider_bitwise(self):
        texts = ["alpha beta gamma", "delta epsilon", "zeta"]
        local = embed_batch(HashedBowEmbedder(dimension=DIM), texts)
        with StubServices(dimension=DIM) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=5.0, retries=0)
            got = embed_batch(remote, texts)
        for a, b in zip(local, got):
            assert np.array_equal(a, b)

    def test_batching_preserves_order(self):
        texts = [f"text number {i}" for i in range(7)]
        with StubServices(dimension=DIM) as stub:
            remote = RemoteEmbedder(
                stub.base_url, DIM, timeout=5.0, retries=0, batch_size=3, max_in_flight=2
            )
            got = embed_batch(remote, texts)
            assert stub.request_count == 3  # ceil(7 / 3) batches
        local = embed_batch(HashedBowEmbedder(dimension=DIM), texts)
        for a, b in zip(local, got):
            assert np.array_equal(a, b)

    def test_indexes_stay_dense_and_exact(self, toy_corpus, tmp_path):
        # The stub serves hashed-bow rows, mostly zeros, as a dense block.
        queries = ["zorblat fenwick grant", "depot storage", "canal water schedule"]
        query_rows = embed_batch(HashedBowEmbedder(dimension=DIM), queries)
        with StubServices(dimension=DIM) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=5.0, retries=0)
            indexes = [build_index(toy_corpus, level, remote) for level in toy_corpus.levels]
        for index in indexes:
            assert index.layout == "dense"
            for query in query_rows:
                for k in (1, 3, len(index)):
                    assert_hits_are(search_hits(index, query, k), naive_top_k(index, query, k))
        a, b = tmp_path / "a", tmp_path / "b"
        save_corpus(toy_corpus, a, indexes, remote)
        corpus, indices = load_artifacts(a, remote)
        assert [index.layout for index in indices.values()] == ["dense"] * len(indexes)
        save_corpus(corpus, b, indices.values(), remote)
        assert (a / "nodes.bin").read_bytes() == (b / "nodes.bin").read_bytes()

    def test_flipped_bit_in_a_dense_row_is_refused_at_load(self, toy_corpus, tmp_path):
        with StubServices(dimension=DIM) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=5.0, retries=0)
            # The sentence level is stored last, after every other level.
            indexes = [build_index(toy_corpus, level, remote) for level in toy_corpus.levels
                       if level != Level.SENTENCE]
            index = build_index(toy_corpus, Level.SENTENCE, remote)
        assert index.layout == "dense"
        save_corpus(toy_corpus, tmp_path, [*indexes, index], remote)
        path = tmp_path / "nodes.bin"
        data = bytearray(path.read_bytes())
        # The level's rows end where the header, its length and the magic begin.
        end = len(data) - 12 - int.from_bytes(data[-12:-8], "little")
        body = end - 4 * len(index) * DIM
        first = int(np.flatnonzero(np.frombuffer(data[body:end], "<f4"))[0])
        data[body + 4 * first + 3] ^= 0x01  # an exponent bit: times or over 4
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="is not unit") as exc:
            load_artifacts(tmp_path, remote)
        assert repr(index_ids(index)[first // DIM]) in str(exc.value)
        assert "\n" not in str(exc.value)

    def test_wrong_dimension_raises(self):
        with StubServices(dimension=DIM, mode=MODE_WRONG_DIMENSION) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=5.0, retries=0)
            with pytest.raises(DimensionMismatchError):
                remote.embed_batch(["text"])

    def test_timeout_exhausts_retries(self):
        with StubServices(dimension=DIM, mode=MODE_HANG, hang_seconds=3.0) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=0.2, retries=1)
            with pytest.raises(ProviderUnavailableError, match="after 2 attempts"):
                remote.embed_batch(["text"])
            assert stub.request_count == 2

    def test_server_error_retried_then_fails(self):
        with StubServices(dimension=DIM, mode=MODE_SERVER_ERROR) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=5.0, retries=2)
            with pytest.raises(ProviderUnavailableError):
                remote.embed_batch(["text"])
            assert stub.request_count == 3

    def test_client_error_fails_immediately(self):
        with StubServices(dimension=DIM, mode=MODE_BAD_REQUEST) as stub:
            remote = RemoteEmbedder(stub.base_url, DIM, timeout=5.0, retries=3)
            with pytest.raises(ProviderUnavailableError, match="422"):
                remote.embed_batch(["text"])
            assert stub.request_count == 1

    @pytest.mark.parametrize(
        "body",
        [b'{"vectors": [["a", 1]], "dimension": 2}', b'{"vectors": [[null, 1]], "dimension": 2}',
         b'{"vectors": [[[1], 2]], "dimension": 2}', b'{"vectors": 5, "dimension": 2}',
         # The dimension is a JSON integer, never coerced.
         b'{"vectors": [[1, 0]], "dimension": 1e400}', b'{"vectors": [[1, 0]], "dimension": "2"}',
         b'{"vectors": [[1, 0]], "dimension": 2.9}', b'{"vectors": [[1, 0]], "dimension": true}'],
        ids=["string-element", "null-element", "ragged-element", "vectors-not-a-list",
             "dimension-overflow", "dimension-string", "dimension-float", "dimension-bool"],
    )
    def test_malformed_vectors_are_provider_error(self, body):
        with StubServices(dimension=2, raw_body=body) as stub:
            remote = RemoteEmbedder(stub.base_url, 2, timeout=5.0, retries=0)
            with pytest.raises(ProviderUnavailableError, match="malformed embed response"):
                remote.embed_batch(["text"])

    def test_credentials_header_sent(self, monkeypatch):
        monkeypatch.setenv("HRR_TEST_KEY", "sekrit")
        with StubServices(dimension=DIM) as stub:
            remote = RemoteEmbedder(
                stub.base_url, DIM, timeout=5.0, retries=0, api_key_env="HRR_TEST_KEY"
            )
            remote.embed_batch(["text"])
            assert stub.seen_headers[0].get("Authorization") == "Bearer sekrit"

    def test_missing_credential_env_rejected(self, monkeypatch):
        monkeypatch.delenv("HRR_NO_SUCH_KEY", raising=False)
        with pytest.raises(ConfigError):
            RemoteEmbedder("http://x", DIM, api_key_env="HRR_NO_SUCH_KEY")


class TestRemoteReranker:
    def test_matches_local_scorer(self):
        request = RerankRequest(
            "solar subsidy",
            (("a", "solar subsidy details"), ("b", "unrelated text")),
        )
        local = rerank(LexicalOverlapReranker(), request)
        with StubServices(dimension=DIM) as stub:
            remote = rerank(
                RemoteReranker(stub.base_url, timeout=5.0, retries=0), request
            )
        assert remote == local

    def test_failure_with_passthrough_fallback(self):
        request = RerankRequest("q", (("b", "two"), ("a", "one")))
        with StubServices(dimension=DIM, mode=MODE_SERVER_ERROR) as stub:
            ranked = rerank(
                RemoteReranker(stub.base_url, timeout=5.0, retries=0),
                request,
                fallback=FALLBACK_PASSTHROUGH,
            )
        assert [c.chunk_id for c in ranked] == ["b", "a"]
        assert all(c.score is None for c in ranked)

    def test_failure_with_error_fallback(self):
        request = RerankRequest("q", (("a", "one"),))
        with StubServices(dimension=DIM, mode=MODE_SERVER_ERROR) as stub:
            with pytest.raises(ProviderUnavailableError):
                rerank(RemoteReranker(stub.base_url, timeout=5.0, retries=0), request)


    @pytest.mark.parametrize(
        "body",
        [b'{"scores": [NaN, 0.5]}', b'{"scores": [0.5, Infinity]}', b'{"scores": [-Infinity, 0.5]}'],
        ids=["nan", "infinity", "minus-infinity"],
    )
    def test_non_finite_score_is_provider_error(self, body):
        request = RerankRequest("q", (("a", "one"), ("b", "two")))
        with StubServices(dimension=DIM, raw_body=body) as stub:
            reranker = RemoteReranker(stub.base_url, timeout=5.0, retries=0)
            with pytest.raises(ProviderUnavailableError, match="malformed rerank response"):
                rerank(reranker, request)
            ranked = rerank(reranker, request, fallback=FALLBACK_PASSTHROUGH)
        assert [(c.chunk_id, c.score) for c in ranked] == [("a", None), ("b", None)]


    @pytest.mark.parametrize(
        "body",
        [b'{"scores": "12"}', b'{"scores": [true, false]}', b'{"scores": ["1", "2"]}',
         b'{"scores": 12}', b'{"scores": [null, 1]}', b'{"scores": [[1], 2]}',
         b'{"scores": [1' + b"0" * 400 + b', 2]}', b'[1, 2]'],
        ids=["string", "bools", "numeric-strings", "not-a-list", "null-element",
             "nested-element", "int-beyond-float", "no-scores-key"],
    )
    def test_non_numeric_scores_are_provider_error(self, body):
        request = RerankRequest("q", (("a", "one"), ("b", "two")))
        with StubServices(dimension=DIM, raw_body=body) as stub:
            reranker = RemoteReranker(stub.base_url, timeout=5.0, retries=0)
            with pytest.raises(ProviderUnavailableError, match="malformed rerank response"):
                rerank(reranker, request)
            ranked = rerank(reranker, request, fallback=FALLBACK_PASSTHROUGH)
        assert [(c.chunk_id, c.score) for c in ranked] == [("a", None), ("b", None)]


class _BrokenStreamSession:
    """A session whose every POST fails mid-body, as when a server drops
    the connection while sending its response."""

    def __init__(self) -> None:
        self.attempts = 0

    def post(self, *args, **kwargs):
        self.attempts += 1
        raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")


class TestTransportErrors:
    def test_broken_stream_is_retried_then_provider_error(self):
        session = _BrokenStreamSession()
        reranker = RemoteReranker("http://127.0.0.1:9", timeout=1.0, retries=2, session=session)
        request = RerankRequest("q", (("b", "two"), ("a", "one")))
        with pytest.raises(ProviderUnavailableError, match="after 3 attempts"):
            rerank(reranker, request)
        assert session.attempts == 3
        ranked = rerank(reranker, request, fallback=FALLBACK_PASSTHROUGH)
        assert [(c.chunk_id, c.score) for c in ranked] == [("b", None), ("a", None)]
        assert session.attempts == 6


class TestEndToEndOverTheWire:
    def test_remote_eval_equals_local_eval(self):
        syn = generate(
            CorpusSpec(seed=3, n_docs=4, tokens_per_doc=700, n_needles=6),
            chunking=TOY_CHUNKING,
        )
        config = EngineConfig(chunking=TOY_CHUNKING)
        local_ctx = context_for(
            syn.corpus,
            config,
            embedder=HashedBowEmbedder(dimension=DIM),
            reranker=LexicalOverlapReranker(),
        )
        strategies = [Strategy.HRR, Strategy.BASE, Strategy.S2P]
        local = compare(local_ctx, list(syn.queries), strategies)
        with StubServices(dimension=DIM) as stub:
            remote_ctx = context_for(
                syn.corpus,
                config,
                embedder=RemoteEmbedder(stub.base_url, DIM, timeout=10.0, retries=1),
                reranker=RemoteReranker(stub.base_url, timeout=10.0, retries=1),
            )
            remote = compare(remote_ctx, list(syn.queries), strategies)
        assert remote == local


class TestServiceUrlInTheFooter:
    """The footer of a file a remote service embedded records the service's
    ``base_url``, and a local embedder's file records none. Loading with a
    config that names another URL refuses the file in one line naming both,
    exit 3, before any request; the same URL loads."""

    CONFIG = {"chunking": {"parent_size": 48, "intermediate_size": 16,
                           "sub_intermediate_size": 8},
              "embedding": {"provider": "remote", "dimension": DIM, "retries": 0}}

    def test_the_same_url_loads_and_another_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with StubServices(dimension=DIM) as stub:
            config = json.loads(json.dumps(self.CONFIG))
            config["embedding"]["base_url"] = stub.base_url
            Path("remote.json").write_text(json.dumps(config))
            config["embedding"]["base_url"] = "http://127.0.0.1:9"  # a request would exit 4
            Path("other.json").write_text(json.dumps(config))
            assert main(["synth", "--seed", "5", "--docs", "2", "--tokens", "220",
                         "--needles", "2", "--out", "synth", "--config", "remote.json"]) == EXIT_OK
            assert main(["ingest", "synth/docs", "--config", "remote.json"]) == EXIT_OK
            path = Path("corpus") / "nodes.bin"
            assert _read_nodes(path).footer["base_url"] == stub.base_url
            load_artifacts("corpus", RemoteEmbedder(stub.base_url + "/", DIM))
            capsys.readouterr()
            assert main(["query", "alpha", "--config", "remote.json"]) == EXIT_OK
            requests_made = stub.request_count
            capsys.readouterr()
            assert main(["query", "alpha", "--config", "other.json"]) == EXIT_IO
            assert capsys.readouterr().err == (
                f"error: {path}: vectors from the service at {stub.base_url!r}, not the "
                "configured 'http://127.0.0.1:9'; re-run ingest\n")
            assert stub.request_count == requests_made

    def test_a_local_file_records_no_url(self, toy_corpus, tmp_path):
        embedder = HashedBowEmbedder(dimension=DIM)
        save_corpus(toy_corpus, tmp_path,
                    (build_index(toy_corpus, level, embedder) for level in toy_corpus.levels),
                    embedder)
        assert "base_url" not in _read_nodes(tmp_path / "nodes.bin").footer
        load_artifacts(tmp_path, embedder)
