"""A minimal corpus around ad-hoc chunks, for tests that index one level."""

from hrr.chunking import ChunkingConfig
from hrr.corpus import ChunkNode, Corpus, Level

from node_table import corpus_of

#: The levels from the top down to each level.
_PATH = {
    Level.PARENT: (Level.PARENT,),
    Level.INTERMEDIATE: (Level.PARENT, Level.INTERMEDIATE),
    Level.SENTENCE: (Level.PARENT, Level.INTERMEDIATE, Level.SENTENCE),
    Level.SUB_INTERMEDIATE: (Level.PARENT, Level.INTERMEDIATE, Level.SUB_INTERMEDIATE),
}
_LETTERS = {Level.PARENT: "p", Level.INTERMEDIATE: "i", Level.SENTENCE: "s",
            Level.SUB_INTERMEDIATE: "c"}


def level_corpus(ids, level: Level = Level.SENTENCE) -> Corpus:
    """A valid corpus whose chunks at ``level`` are ``ids``' chunks, in that
    order.

    An id that holds a ``:`` is the chunk id itself, such as ``d:p0.i1.s2``
    for a sentence: the ids must come in the order the corpus derives them,
    each owner's children one run from ordinal 0. Any other id names a
    document of its own, whose one chunk per level down to ``level`` has
    ordinal 0: ``x`` stands for ``x:p0.i0.s0`` at the sentence level.

    Each chunk at ``level`` is one byte of its document, of one token;
    every chunk above it spans its own. Ids that no corpus derives in that
    order fail ``corpus_of``'s assertion.
    """
    path = _PATH[level]
    chunks = []  # (document id, the id of each chunk on the path)
    for chunk_id in ids:
        doc_id, colon, parts = chunk_id.rpartition(":")
        if not colon:
            doc_id, parts = chunk_id, ".".join(f"{_LETTERS[at]}0" for at in path)
        names = parts.split(".")
        chunks.append((doc_id, [f"{doc_id}:" + ".".join(names[: depth + 1])
                                for depth in range(len(path))]))
    sizes, spans = {}, {}  # each document's bytes; each chunk's (document, span)
    for doc_id, chain in chunks:
        at = sizes[doc_id] = sizes.get(doc_id, 0) + 1
        for chunk_id in chain:
            first = spans.setdefault(chunk_id, (doc_id, at - 1))[1]
            spans[chunk_id] = (doc_id, first, at)
    nodes = []
    for depth, at in enumerate(path):
        for chunk_id in dict.fromkeys(chain[depth] for _, chain in chunks):
            doc_id, start, end = spans[chunk_id]
            parent_id = chunk_id.rpartition(".")[0] if depth else None
            nodes.append(ChunkNode(chunk_id, at, doc_id, parent_id, (start, end), end - start))
    return corpus_of({doc_id: "x" * n for doc_id, n in sizes.items()}, nodes, ChunkingConfig())
