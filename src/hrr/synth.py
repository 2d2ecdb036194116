"""Deterministic synthetic corpora with planted needle facts.

Documents are assembled from a shared boilerplate vocabulary, so at coarse
granularity they all look alike and produce generic embeddings. Each needle
is a sentence holding a few coined keywords that occur nowhere else in the
corpus; its labeled query pairs those keywords with one boilerplate word.
That construction makes gold relevance provable under the hashed
bag-of-words embedder: the generator coins keywords whose hash buckets (at
the default embedding dimension) collide with no boilerplate word, so only
the needle sentence can score on the keyword buckets, while the boilerplate
word keeps coarse chunks confusable with each other. Generation is a pure
function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chunking import ChunkingConfig, build_corpus
from .corpus import Corpus
from .embedding import _bucket
from .errors import ConfigError, SpecInfeasibleError
from .evaluation import LabeledQuery
from .tokens import Tokenizer, WordPunctTokenizer

#: Boilerplate vocabulary shared across documents.
SHARED_POOL = tuple(
    """
    about above account action activity actually addition address agency
    agreement analysis animal answer approach area argument article
    association attention authority available balance become before behavior
    benefit between board budget building business capital category central
    century certain challenge chance change chapter character city claim
    classroom collection college committee common community company computer
    concern condition conference congress consider contain continue control
    country course court culture current customer decision degree demand
    department describe design detail develop difference direction director
    discussion district document dollar domain during early economy education
    effect effort election element employee energy entire environment
    equipment evidence example exchange executive experience explain factor
    family feature federal field figure final finance focus following force
    foreign forward function future general government group growth health
    history hundred impact important include increase industry information
    institution interest international investment issue knowledge language
    leader level likely local major management manner market material matter
    measure meeting member method million minute model moment month morning
    movement nation nature network number office operation opinion option
    order organization outcome paper parent particular partner pattern people
    percent period person picture piece place policy political population
    position possible power practice present president pressure private
    problem process product program project property public purpose quality
    question reason record region relationship report research resource
    response result return review season section sector security series
    service session simple situation society source special standard
    statement station strategy street structure student study subject
    success summer support surface system term theory thing third thought
    through today together toward training treatment trouble type understand
    union university value various version village volume weight window
    winter without worker
    """.split()
)

_SYLLABLES = (
    "ba be bi bo bu da de di do du ga ge gi go gu ka ke ki ko ku la le li lo "
    "lu ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro ru sa se "
    "si so su ta te ti to tu va ve vi vo vu za ze zi zo zu"
).split()

_KEYWORDS_PER_NEEDLE = 3
_NEEDLE_FILLERS = 3
_QUERY_GENERIC_WORDS = 1
_SENTENCE_WORDS = (8, 14)
_PARAGRAPH_EVERY = (6, 10)
_LOCAL_POOL_SIZE = 30
#: Hash-collision checks are enforced against this embedding dimension.
DEFAULT_EMBED_DIMENSION = 384


@dataclass(frozen=True)
class CorpusSpec:
    seed: int = 42
    n_docs: int = 20
    tokens_per_doc: int = 4096
    n_needles: int = 30
    #: Fraction of each sentence drawn from the shared boilerplate pool.
    distractor_density: float = 0.9

    def validate(self) -> None:
        if self.n_docs < 1 or self.tokens_per_doc < 20 or self.n_needles < 1:
            raise ConfigError("n_docs, tokens_per_doc and n_needles must be positive")
        if not 0.0 <= self.distractor_density <= 1.0:
            raise ConfigError("distractor_density must be in [0, 1]")


@dataclass(frozen=True)
class Needle:
    """One planted fact: its coined keywords, sentence, and home document."""

    keywords: tuple[str, ...]
    sentence: str
    doc_id: str


@dataclass(frozen=True)
class SyntheticCorpus:
    documents: dict[str, str]
    queries: tuple[LabeledQuery, ...]
    needles: tuple[Needle, ...]
    corpus: Corpus


def generate(
    spec: CorpusSpec,
    *,
    chunking: ChunkingConfig | None = None,
    tokenizer: Tokenizer | None = None,
) -> SyntheticCorpus:
    """Generate documents, one labeled query per needle, and the chunked corpus.

    Gold parents are resolved by chunking the documents with ``chunking``
    (defaults used when omitted), so labels stay valid for any ingest run
    with the same settings.
    """
    spec.validate()
    chunking = chunking if chunking is not None else ChunkingConfig()
    tokenizer = tokenizer if tokenizer is not None else WordPunctTokenizer()
    rng = random.Random(spec.seed)

    forbidden = {_bucket(w, DEFAULT_EMBED_DIMENSION) for w in SHARED_POOL}
    forbidden.add(_bucket(".", DEFAULT_EMBED_DIMENSION))
    free = DEFAULT_EMBED_DIMENSION - len(forbidden)
    max_needles = free // _KEYWORDS_PER_NEEDLE
    if spec.n_needles > max_needles:
        raise SpecInfeasibleError(
            f"{spec.n_needles} needles need {spec.n_needles * _KEYWORDS_PER_NEEDLE} "
            f"keyword hash buckets, but only {free} of {DEFAULT_EMBED_DIMENSION} are free "
            f"of boilerplate words: at most {max_needles} needles"
        )
    keywords = _coin_words(rng, spec.n_needles * _KEYWORDS_PER_NEEDLE, forbidden)
    keyword_buckets = {_bucket(w, DEFAULT_EMBED_DIMENSION) for w in keywords}

    doc_ids = [f"doc{d:03d}" for d in range(spec.n_docs)]
    doc_sentences: dict[str, list[str]] = {}
    for doc_id in doc_ids:
        local_pool = _coin_words(rng, _LOCAL_POOL_SIZE, keyword_buckets)
        doc_sentences[doc_id] = _build_sentences(rng, spec, local_pool)

    total_sentences = sum(len(s) for s in doc_sentences.values())
    if spec.n_needles > total_sentences:
        raise SpecInfeasibleError(
            f"{spec.n_needles} needles but only {total_sentences} sentences"
        )

    needles: list[Needle] = []
    raw_queries: list[str] = []
    for i in range(spec.n_needles):
        kws = tuple(keywords[i * _KEYWORDS_PER_NEEDLE : (i + 1) * _KEYWORDS_PER_NEEDLE])
        doc_id = doc_ids[i % spec.n_docs]
        fillers = rng.sample(SHARED_POOL, _NEEDLE_FILLERS)
        body = list(kws) + fillers[1:]
        rng.shuffle(body)
        sentence = " ".join([fillers[0].capitalize()] + body) + "."
        needles.append(Needle(keywords=kws, sentence=sentence, doc_id=doc_id))

        generic = rng.sample(SHARED_POOL, _QUERY_GENERIC_WORDS)
        while any(g in fillers for g in generic):
            generic = rng.sample(SHARED_POOL, _QUERY_GENERIC_WORDS)
        raw_queries.append(" ".join(generic + list(kws)))

    _plant_needles(rng, doc_ids, doc_sentences, needles)

    documents = {
        doc_id: _assemble(rng, doc_sentences[doc_id]) for doc_id in doc_ids
    }
    corpus = build_corpus(documents, chunking, tokenizer)

    queries = []
    for i, needle in enumerate(needles):
        parent_id, byte_span = _locate_needle(corpus, needle)
        queries.append(
            LabeledQuery(
                query=raw_queries[i],
                gold_parent=parent_id,
                gold_doc=needle.doc_id,
                gold_span=byte_span,
            )
        )
    return SyntheticCorpus(
        documents=documents, queries=tuple(queries), needles=tuple(needles), corpus=corpus
    )


def _plant_needles(
    rng: random.Random,
    doc_ids: list[str],
    doc_sentences: dict[str, list[str]],
    needles: list[Needle],
) -> None:
    """Insert needle sentences at spread-out positions.

    Needles sharing a document are placed at staggered fractions of it (with
    a small seeded jitter), so as long as a document holds at least as many
    parent chunks as needles, every query gets a distinct gold parent.
    """
    by_doc: dict[str, list[Needle]] = {doc_id: [] for doc_id in doc_ids}
    for needle in needles:
        by_doc[needle.doc_id].append(needle)
    for doc_id in doc_ids:
        group = by_doc[doc_id]
        if not group:
            continue
        base = len(doc_sentences[doc_id])
        placements = []
        for j, needle in enumerate(group):
            jitter = rng.randint(-base // (8 * len(group)), base // (8 * len(group)))
            position = int((j + 0.5) * base / len(group)) + jitter
            placements.append((max(0, min(base, position)), needle))
        for position, needle in sorted(placements, key=lambda t: -t[0]):
            doc_sentences[doc_id].insert(position, needle.sentence)


def _coin_words(rng: random.Random, count: int, taken_buckets: set[int]) -> list[str]:
    """Coin pronounceable words absent from the shared pool.

    The coined words also avoid every hash bucket in ``taken_buckets`` (and
    each other's), which is what makes needle scores provably separable from
    boilerplate under the default embedder. The caller must leave at least
    ``count`` buckets free, or this never returns.
    """
    words: list[str] = []
    seen_buckets = set(taken_buckets)
    seen_words = set(SHARED_POOL)
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if word in seen_words:
            continue
        bucket = _bucket(word, DEFAULT_EMBED_DIMENSION)
        if bucket in seen_buckets:
            continue
        seen_words.add(word)
        seen_buckets.add(bucket)
        words.append(word)
    return words


def _build_sentences(rng: random.Random, spec: CorpusSpec, local_pool: list[str]) -> list[str]:
    sentences: list[str] = []
    tokens = 0
    while tokens < spec.tokens_per_doc:
        length = rng.randint(*_SENTENCE_WORDS)
        n_shared = round(length * spec.distractor_density)
        n_local = length - n_shared
        words = rng.sample(SHARED_POOL, n_shared) + rng.sample(local_pool, min(n_local, len(local_pool)))
        rng.shuffle(words)
        sentence = " ".join(words).capitalize() + "."
        sentences.append(sentence)
        tokens += len(words) + 1  # words are single tokens; the period is one
    return sentences


def _assemble(rng: random.Random, sentences: list[str]) -> str:
    """Join sentences with spaces, breaking a paragraph every few sentences."""
    parts: list[str] = []
    until_break = rng.randint(*_PARAGRAPH_EVERY)
    for sentence in sentences:
        if parts:
            if until_break == 0:
                parts.append("\n\n")
                until_break = rng.randint(*_PARAGRAPH_EVERY)
            else:
                parts.append(" ")
                until_break -= 1
        parts.append(sentence)
    return "".join(parts)


def _locate_needle(corpus: Corpus, needle: Needle) -> tuple[str, tuple[int, int]]:
    """Find the needle sentence's byte span and the parent chunk holding it."""
    sentence = needle.sentence.encode("utf-8")
    byte_start = corpus.documents[needle.doc_id].find(sentence)
    if byte_start < 0:
        raise SpecInfeasibleError(f"needle sentence lost during assembly: {needle}")
    byte_span = (byte_start, byte_start + len(sentence))
    parent_id = corpus.parent_at(needle.doc_id, byte_start)
    if parent_id is None:
        raise SpecInfeasibleError(f"no parent chunk covers needle at byte {byte_start}")
    return parent_id, byte_span
