"""A minimal corpus around ad-hoc chunk ids, for tests that index one level."""

from hrr.chunking import ChunkingConfig
from hrr.corpus import ChunkNode, Corpus, Level

from node_table import corpus_of

#: The levels above each level, top down.
_ABOVE = {
    Level.PARENT: (),
    Level.INTERMEDIATE: (Level.PARENT,),
    Level.SENTENCE: (Level.PARENT, Level.INTERMEDIATE),
    Level.SUB_INTERMEDIATE: (Level.PARENT, Level.INTERMEDIATE),
}


def level_corpus(ids, level: Level = Level.SENTENCE) -> Corpus:
    """A valid corpus whose chunks at ``level`` are ``ids``, in that order.

    One document of ``len(ids)`` bytes, each id's chunk one byte of it, of
    one token; above ``level``, one chunk per level spans the whole
    document, under an id longer than any of ``ids``, so none collides.
    Ids that no corpus holds (one used twice, or holding a NUL or a lone
    surrogate) raise ``InvalidCorpusError``, as from any corpus.
    """
    n, pad = len(ids), "~" * max(map(len, ids), default=0)
    nodes, owner = [], None
    for above in _ABOVE[level]:
        nodes.append(ChunkNode(f"{pad}~{above.value}", above, "d", owner, (0, n), n))
        owner = nodes[-1].id
    nodes += [ChunkNode(chunk_id, level, "d", owner, (i, i + 1), 1)
              for i, chunk_id in enumerate(ids)]
    return corpus_of({"d": "x" * n}, nodes, ChunkingConfig())
