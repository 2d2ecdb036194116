"""Hand-written corpora: ``ChunkNode``s packed into the table ``Corpus`` takes."""

from hrr.corpus import ChunkNode, Corpus, Level


def table_of(documents, nodes: list[ChunkNode]) -> tuple[dict, tuple]:
    """The documents' UTF-8 bytes and the seven columns whose rows are
    ``nodes``, in the order given, as ``Corpus`` takes them; each parent
    link is found by the parent's id among ``nodes``.

    A parent or document the corpus lacks gets a row the structure check
    refuses: a parent row of -2, a document row past the last document.
    """
    doc_rows = {doc_id: row for row, doc_id in enumerate(documents)}
    rows = {node.id: row for row, node in enumerate(nodes)}
    columns = (
        [list(Level).index(node.level) for node in nodes],
        [doc_rows.get(node.doc_id, len(doc_rows)) for node in nodes],
        [-1 if node.parent_id is None else rows.get(node.parent_id, -2) for node in nodes],
        [node.char_span[0] for node in nodes],
        [node.char_span[1] for node in nodes],
        [node.token_count for node in nodes],
        [node.hard_split for node in nodes],
    )
    return {doc_id: text.encode("utf-8") for doc_id, text in documents.items()}, columns


def corpus_of(documents, nodes: list[ChunkNode], config, tokenizer_name="word-punct") -> Corpus:
    """A corpus of ``documents`` (id to text) whose rows are ``nodes``, in
    the order given (``table_of``). The corpus stores no id, so each node's
    id must be the one its row derives, which is asserted."""
    corpus = Corpus(*table_of(documents, nodes), config=config, tokenizer_name=tokenizer_name)
    derived = list(corpus.ids_of(range(len(nodes))))
    assert derived == [node.id for node in nodes], (derived, [node.id for node in nodes])
    corpus._ids.clear()  # handed over as loaded: no id derived yet
    return corpus
