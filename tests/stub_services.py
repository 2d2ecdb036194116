"""In-process HTTP stub implementing the embed and rerank wire contracts.

The happy path answers with the local hashed bag-of-words embedder and the
lexical reranker, so a pipeline pointed at the stub must reproduce a fully
local run bit for bit. Failure modes (wrong dimension, hang, server error)
are switchable per instance to drive the error-path tests, and ``raw_body``
replaces every answer with fixed bytes, for malformed responses.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from hrr.embedding import HashedBowEmbedder
from hrr.rerank import LexicalOverlapReranker

MODE_OK = "ok"
MODE_WRONG_DIMENSION = "wrong-dimension"
MODE_HANG = "hang"
MODE_SERVER_ERROR = "server-error"
MODE_BAD_REQUEST = "bad-request"


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        """Stay silent when a client hung up first: a timed-out request's
        handler thread finishes later, and its traceback would land in the
        stderr of whichever test runs then."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class StubServices:
    """Runs a tiny threading HTTP server until used as a context manager."""

    def __init__(
        self,
        dimension: int = 64,
        mode: str = MODE_OK,
        hang_seconds: float = 5.0,
        raw_body: bytes | None = None,
    ):
        self.dimension = dimension
        self.mode = mode
        self.hang_seconds = hang_seconds
        self.raw_body = raw_body
        self.embedder = HashedBowEmbedder(dimension=dimension)
        self.reranker = LexicalOverlapReranker()
        self.seen_headers: list[dict[str, str]] = []
        self.request_count = 0
        self._server = _Server(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServices":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def _handler_class(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                stub.request_count += 1
                stub.seen_headers.append(dict(self.headers))
                if stub.mode == MODE_HANG:
                    time.sleep(stub.hang_seconds)
                if stub.mode == MODE_SERVER_ERROR:
                    self.send_response(503)
                    self.end_headers()
                    return
                if stub.mode == MODE_BAD_REQUEST:
                    self.send_response(422)
                    self.end_headers()
                    return
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                if self.path == "/embed":
                    payload = self._embed(body)
                elif self.path == "/rerank":
                    payload = self._rerank(body)
                else:
                    self.send_response(404)
                    self.end_headers()
                    return
                data = stub.raw_body or json.dumps(payload).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _embed(self, body):
                vectors = stub.embedder.embed_batch(body["texts"])
                dimension = stub.dimension
                if stub.mode == MODE_WRONG_DIMENSION:
                    vectors = [v[:-1] for v in vectors]
                    dimension = stub.dimension - 1
                return {
                    "vectors": [[float(x) for x in v] for v in vectors],
                    "dimension": dimension,
                }

            def _rerank(self, body):
                scores = stub.reranker.score_pairs(body["query"], body["documents"])
                return {"scores": scores}

        return Handler
