"""Command-line interface.

Subcommands: synth (write a synthetic corpus), ingest (chunk + index a
document directory), query (ad-hoc retrieval), eval (Hit Rate / MRR table
over a labeled query set), validate (corpus content check), inspect
(dump a chunk and its ancestry).

Exit codes: 0 success, 2 config or usage errors, 3 missing, unreadable or
unwritable files and bad artifacts, 4 provider failures, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import engine
from .config import EngineConfig, load_config
from .corpus import load_corpus, validate_corpus
from .embedding import encodes_as_utf8
from .errors import (
    ConfigError,
    HrrError,
    MissingIndexError,
    NoDocumentsError,
    ProviderUnavailableError,
    SnapshotFormatError,
    SpecInfeasibleError,
    UnknownChunkError,
    UnreadableDocumentError,
)
from .evaluation import compare, format_table, load_query_set, summaries_to_json
from .retrievers import RetrievalResult, Strategy, retrieve, strategy_named
from .synth import CorpusSpec, generate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROVIDER = 4

FORMAT_TABLE = "table"
FORMAT_MACHINE = "machine"


class _Parser(argparse.ArgumentParser):
    """An argument parser, subparsers included, whose usage errors take one
    stderr line and exit 2 (``SystemExit``), with no usage block."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="path to the JSON config file"
    )

    parser = _Parser(
        prog="hrr",
        description="Hierarchical retrieval engine: ingest, query, evaluate.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest", help="chunk and index a directory of .txt files", parents=[common]
    )
    p_ingest.add_argument("docs_dir", help="directory of plain-text documents")
    p_ingest.set_defaults(func=cmd_ingest)

    p_query = sub.add_parser(
        "query", help="retrieve parent chunks for one query", parents=[common]
    )
    p_query.add_argument("query", help="query text")
    p_query.add_argument("--strategy", choices=[s.value for s in Strategy])
    p_query.add_argument("--k", type=int, help="similarity top-k per searched level")
    p_query.add_argument("--rerank-k", type=int, help="rerank top-k")
    p_query.add_argument("--trace", action="store_true", help="print per-stage candidates")
    p_query.add_argument("--format", choices=[FORMAT_TABLE, FORMAT_MACHINE], default=FORMAT_TABLE)
    p_query.set_defaults(func=cmd_query)

    p_eval = sub.add_parser("eval", help="compare strategies on a labeled query set", parents=[common])
    p_eval.add_argument("--query-set", help="query-set file (defaults to config paths.query_set)")
    p_eval.add_argument(
        "--strategies",
        default=",".join(s.value for s in Strategy),
        help="comma-separated strategies to evaluate",
    )
    p_eval.add_argument("--format", choices=[FORMAT_TABLE, FORMAT_MACHINE], default=FORMAT_TABLE)
    p_eval.add_argument("--out", help="also write machine-readable results to this file")
    p_eval.set_defaults(func=cmd_eval)

    p_validate = sub.add_parser(
        "validate",
        help="recount token counts and check level budgets",
        description="Recount the ingested corpus's token counts and check its level budgets. "
        "Its structure (ids, parent links, levels, spans and, at overlap 0, coverage and "
        "token sums) is checked whenever a corpus is built or loaded.",
        parents=[common],
    )
    p_validate.set_defaults(func=cmd_validate)

    p_inspect = sub.add_parser("inspect", help="dump one chunk and its ancestry", parents=[common])
    p_inspect.add_argument("chunk_id")
    p_inspect.set_defaults(func=cmd_inspect)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus with needle queries", parents=[common])
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--docs", type=int, default=20)
    p_synth.add_argument("--tokens", type=int, default=4096, help="minimum tokens per document")
    p_synth.add_argument("--needles", type=int, default=30)
    p_synth.add_argument("--density", type=float, default=0.9, help="shared-vocabulary fraction")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def cmd_ingest(args: argparse.Namespace, config: EngineConfig) -> int:
    summary = engine.ingest(args.docs_dir, config)
    print(f"documents: {summary.documents}")
    for level, count in summary.chunks_per_level.items():
        print(f"chunks[{level}]: {count}")
    print(f"dimension: {summary.dimension}")
    print(f"corpus: {config.paths.corpus_dir}")
    print(f"indexes: {config.paths.index_dir}")
    return EXIT_OK


def _apply_overrides(config: EngineConfig, args: argparse.Namespace) -> EngineConfig:
    retriever = config.retriever
    if getattr(args, "strategy", None):
        retriever = dataclasses.replace(retriever, strategy=Strategy(args.strategy))
    if getattr(args, "k", None) is not None:
        retriever = dataclasses.replace(retriever, similarity_top_k=args.k)
    if getattr(args, "rerank_k", None) is not None:
        retriever = dataclasses.replace(retriever, rerank_top_k=args.rerank_k)
    retriever.validate()
    return dataclasses.replace(config, retriever=retriever)


def cmd_query(args: argparse.Namespace, config: EngineConfig) -> int:
    if not args.query.strip():
        raise ConfigError("the query text is blank")
    if not encodes_as_utf8(args.query):
        raise ConfigError("the query text is not valid UTF-8")
    config = _apply_overrides(config, args)
    ctx = engine.load_context(config)
    result = retrieve(args.query, ctx)
    if args.format == FORMAT_MACHINE:
        payload = result.to_dict()
        if not args.trace:
            payload.pop("trace")
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
        return EXIT_OK
    _print_result(result, ctx, show_trace=args.trace)
    return EXIT_OK


def _print_result(result: RetrievalResult, ctx, *, show_trace: bool) -> None:
    print(f"strategy: {result.strategy.value}")
    if not result.parents:
        print("no parents retrieved")
    for rank, parent in enumerate(result.parents, start=1):
        score = "-" if parent.score is None else f"{parent.score:.6f}"
        text = ctx.corpus.chunk_text(parent.chunk_id)
        preview = " ".join(text.split())[:100]
        print(f"{rank}. {parent.chunk_id}  score={score}")
        print(f"   {preview}")
    if show_trace:
        print("trace:")
        for stage in result.trace:
            ids = ", ".join(
                f"{c.chunk_id}={'-' if c.score is None else format(c.score, '.4f')}"
                for c in stage.candidates
            )
            print(f"  {stage.stage} ({len(stage.candidates)}): {ids}")


def cmd_eval(args: argparse.Namespace, config: EngineConfig) -> int:
    strategies = [
        strategy_named(s.strip(), "each of --strategies") for s in args.strategies.split(",")
        if s.strip()
    ]
    if not strategies:
        raise ConfigError("--strategies selected nothing")
    for i, strategy in enumerate(strategies):
        if strategy in strategies[:i]:
            raise ConfigError(f"--strategies names {strategy.value!r} more than once")
    ctx = engine.load_context(config)
    query_set = args.query_set or config.paths.query_set
    queries = load_query_set(query_set, ctx.corpus)
    summaries = compare(ctx, queries, strategies)
    if args.format == FORMAT_MACHINE:
        print(summaries_to_json(summaries))
    else:
        print(format_table(summaries))
    if args.out:
        Path(args.out).write_text(summaries_to_json(summaries) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, config: EngineConfig) -> int:
    corpus = load_corpus(config.paths.corpus_dir)
    violations = validate_corpus(corpus)
    if not violations:
        print(f"corpus OK: {len(corpus.documents)} documents, {len(corpus)} chunks")
        return EXIT_OK
    for violation in violations:
        print(str(violation))
    print(f"{len(violations)} violations")
    return EXIT_ERROR


def cmd_inspect(args: argparse.Namespace, config: EngineConfig) -> int:
    corpus = load_corpus(config.paths.corpus_dir)
    chunk_id = args.chunk_id
    while chunk_id is not None:
        node = corpus.get(chunk_id)
        text = " ".join(corpus.chunk_text(node.id).split())
        preview = text[:160] + ("..." if len(text) > 160 else "")
        print(
            f"{node.id}  level={node.level.value} doc={node.doc_id} "
            f"span={list(node.char_span)} tokens={node.token_count} "
            f"hard_split={node.hard_split}"
        )
        print(f"  {preview}")
        chunk_id = node.parent_id
    return EXIT_OK


def cmd_synth(args: argparse.Namespace, config: EngineConfig) -> int:
    spec = CorpusSpec(
        seed=args.seed,
        n_docs=args.docs,
        tokens_per_doc=args.tokens,
        n_needles=args.needles,
        distractor_density=args.density,
    )
    synthetic = generate(spec, chunking=config.chunking)
    out_dir = Path(args.out)
    docs_dir = out_dir / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    for doc_id, text in synthetic.documents.items():
        (docs_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    from .evaluation import save_query_set

    query_path = out_dir / "queries.jsonl"
    save_query_set(query_path, synthetic.queries)
    print(f"documents: {len(synthetic.documents)} -> {docs_dir}")
    print(f"queries: {len(synthetic.queries)} -> {query_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (ConfigError, SpecInfeasibleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        OSError,
        NoDocumentsError,
        MissingIndexError,
        SnapshotFormatError,
        UnknownChunkError,
        UnreadableDocumentError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ProviderUnavailableError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except HrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
