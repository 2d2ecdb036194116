"""Hand-written corpora: ``ChunkNode``s packed into the table ``Corpus`` takes."""

from hrr.corpus import ChunkNode, Corpus, Level


def corpus_of(documents, nodes: list[ChunkNode], config, tokenizer_name="word-punct") -> Corpus:
    """A corpus of ``documents`` (id to text) whose rows are ``nodes``, in
    the order given.

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
    encoded = {doc_id: text.encode("utf-8") for doc_id, text in documents.items()}
    # A lone surrogate passes, so the corpus, not this helper, refuses it.
    table = "\0".join(node.id for node in nodes).encode("utf-8", "surrogatepass")
    return Corpus(encoded, table, columns, config=config, tokenizer_name=tokenizer_name)
