"""Inputs without the synthetic corpora's repeated vocabulary, and how each
input's whitespace pieces repeat.

    PYTHONPATH=src python scripts/scan_inputs.py write OUT_DIR
    PYTHONPATH=src python scripts/scan_inputs.py stats DOCS_DIR

``write`` makes three document directories under OUT_DIR, ~10 MB in all:
``unique`` (sentences of words that never recur), ``cjk`` (CJK sentences
with no spaces, so a piece is a paragraph) and ``b64`` (base64-like runs,
pieces of 40-400 characters). ``stats`` builds the corpus of DOCS_DIR and
prints, over every level's chunk texts, the characters and tokens the
recount counts (one ``count_each`` call), and the pieces and distinct
pieces in them; then, from embedding every level with one embedder, the
pieces its piece table computed, the documents it tokenized into token
streams, the rows it embedded from their own text instead (a document
that fails the stream's proof, or a span that cuts a token), and the
texts (document slices and those rows) the table scanned whole (rested
for); then the in-process seconds of
chunking (``build_corpus``) and of the sentence split within it
(``split_sentences`` over every document), of the recount
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
from hrr.sentences import split_sentences
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
    documents = read_documents(docs)
    corpus = build_corpus(documents)
    levels = [corpus.texts_at(level) for level in corpus.levels]
    texts = [text for level in levels for text in level]
    tokenizer = WordPunctTokenizer()
    # A tree before ``count_each`` counts one text at a time.
    counted = (tokenizer.count_each(texts).sum() if hasattr(tokenizer, "count_each")
               else sum(map(tokenizer.count_tokens, texts)))
    print(f"count: {len(texts)} texts, {sum(map(len, texts))} characters, {counted} tokens")
    embedder = HashedBowEmbedder()
    for level in levels:
        embedder.embed_batch(level)
    pieces = [piece for text in texts for piece in text.lower().split()]
    # A tree before the token streams embeds every row from its text.
    streamed = getattr(embedder, "streamed", 0)
    per_text = getattr(embedder, "fallback_rows", len(texts))
    print(f"embed: {len(pieces)} pieces, {len(set(pieces))} distinct, "
          f"{embedder._table.misses} computed, {streamed} documents streamed, "
          f"{per_text} rows per text, {embedder._table.scanned} texts rested")

    def embed() -> None:
        fresh = HashedBowEmbedder()
        for level in levels:
            fresh.embed_batch(level)

    def split() -> None:
        for text in documents.values():
            split_sentences(text)

    print(f"build_corpus {best(lambda: build_corpus(documents)):.3f} s "
          f"(split_sentences {best(split):.3f} s), "
          f"recount {best(lambda: validate_corpus(corpus)):.3f} s, embed {best(embed):.3f} s")


if __name__ == "__main__":
    command, path = sys.argv[1], Path(sys.argv[2])
    write(path) if command == "write" else stats(path)
