"""Inputs without the synthetic corpora's repeated vocabulary, and how each
input's whitespace pieces repeat.

    PYTHONPATH=src python scripts/scan_inputs.py write OUT_DIR
    PYTHONPATH=src python scripts/scan_inputs.py stats DOCS_DIR

``write`` makes three document directories under OUT_DIR, ~10 MB in all:
``unique`` (sentences of words that never recur), ``cjk`` (CJK sentences
with no spaces, so a piece is a paragraph) and ``b64`` (base64-like runs,
pieces of 40-400 characters). ``stats`` builds the corpus of DOCS_DIR and
prints, over every level's chunk texts, the pieces and distinct pieces the
token-count memo and the embedder's piece memo see, and the share of texts
each memo rested for; then the in-process seconds of the recount
(``validate_corpus``) and of embedding every level with one embedder, the
best of three. Run ``stats`` with ``PYTHONPATH`` set to each of two trees
to compare them on one input.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from hrr.chunking import build_corpus
from hrr.corpus import validate_corpus
from hrr.embedding import HashedBowEmbedder
from hrr.engine import read_documents
from hrr.tokens import WordPunctTokenizer

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def unique(rng: random.Random) -> str:
    seen: set[str] = set()
    paragraphs = []
    for _ in range(170):
        sentences = []
        for _ in range(6):
            words = []
            while len(words) < rng.randint(6, 18):
                word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(5, 11)))
                if word not in seen:
                    seen.add(word)
                    words.append(word)
            sentences.append(" ".join(words).capitalize() + ".")
        paragraphs.append(" ".join(sentences))
    return "\n\n".join(paragraphs) + "\n"


def cjk(rng: random.Random) -> str:
    paragraphs = []
    for _ in range(150):
        paragraphs.append("".join(
            "".join(chr(rng.randint(0x4E00, 0x9FFF)) for _ in range(rng.randint(15, 60))) + "。"
            for _ in range(rng.randint(3, 8))
        ))
    return "\n\n".join(paragraphs) + "\n"


def b64(rng: random.Random) -> str:
    alphabet = LETTERS + LETTERS.upper() + "0123456789+/"
    runs = ("".join(rng.choice(alphabet) for _ in range(rng.randint(40, 400))) + "=" for _ in range(270))
    return " ".join(runs) + "\n"


def write(out: Path) -> None:
    rng = random.Random(5)
    for make in (unique, cjk, b64):
        folder = out / make.__name__
        folder.mkdir(parents=True, exist_ok=True)
        for i in range(40):
            (folder / f"doc{i:03d}.txt").write_text(make(rng), encoding="utf-8")


def best(run) -> float:
    times = []
    for _ in range(3):
        start = time.process_time()
        run()
        times.append(time.process_time() - start)
    return min(times)


def stats(docs: Path) -> None:
    corpus = build_corpus(read_documents(docs))
    levels = [[corpus.chunk_text(i) for i in corpus.ids_at(level)] for level in corpus.levels]
    texts = [text for level in levels for text in level]
    tokenizer, embedder = WordPunctTokenizer(), HashedBowEmbedder()
    for name, memo, use, prepare in (
        ("count", getattr(tokenizer, "_counts", None), tokenizer.count_tokens, str),
        ("embed", getattr(embedder, "_pieces", None), getattr(embedder, "_buckets_of", None),
         str.lower),
    ):
        pieces = [piece for text in texts for piece in prepare(text).split()]
        line = f"{name}: {len(pieces)} pieces, {len(set(pieces))} distinct"
        if memo is not None:  # a tree with the piece memos
            rested = 0
            for text in texts:
                rested += memo.resting > 0
                use(text)
            line += f", {memo.misses} computed, {rested / len(texts):.1%} of texts rested"
        print(line)

    def embed() -> None:
        fresh = HashedBowEmbedder()
        for level in levels:
            fresh.embed_batch(level)

    print(f"recount {best(lambda: validate_corpus(corpus)):.3f} s, embed {best(embed):.3f} s")


if __name__ == "__main__":
    command, path = sys.argv[1], Path(sys.argv[2])
    write(path) if command == "write" else stats(path)
