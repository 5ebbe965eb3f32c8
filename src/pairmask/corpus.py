"""Report tokenization, entity matching and descriptor statistics.

A report is lowercased and split into word-level tokens. Entity mentions
are found by exact lexicon lookup with single trailing-s plural folding.
Each mention owns a short descriptor span: up to ``beta`` word tokens
immediately preceding it, never crossing a sentence end, the
original/appended-text boundary, or another mention's territory. Span
polarity is negative when any span word is a negation term, otherwise
"other"; corpus-level counts of the two classes drive the loss
re-balancing factors.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

PAD_TOKEN = "[PAD]"
OOV_TOKEN = "[OOV]"
MASK_TOKEN = "[MASK]"
PAD_ID = 0
OOV_ID = 1
MASK_ID = 2

POLARITY_NEGATIVE = "negative"
POLARITY_OTHER = "other"

# Chest-findings entity lexicon (44 canonical lowercase words).
DEFAULT_ENTITY_LEXICON = frozenset(
    {
        "abnormality", "abscess", "aerate", "aorta", "atelectasis",
        "bronchiectasis", "calcification", "cardiomediastinal", "cardiomegaly",
        "catheter", "chf", "collapse", "congestion", "consolidation",
        "contour", "copd", "deformity", "dilation", "distention", "edema",
        "effusion", "embolism", "emphysema", "engorgement", "fibrosis",
        "fracture", "granuloma", "hernia", "hilar", "hyperinflate",
        "hemidiaphragm", "infiltrate", "mass", "nodule", "obscure", "opacity",
        "perihilar", "pneumonia", "pneumothorax", "sarcoidosis", "silhouette",
        "thickening", "tuberculosis", "vasculature",
    }
)

# Words that flip a descriptor span to the negative class.
DEFAULT_NEGATION_TERMS = frozenset(
    {"no", "not", "without", "clear", "free", "negative", "unremarkable", "resolved"}
)

DEFAULT_BETA = 2

# Sentence-ending punctuation stops descriptor collection; other
# punctuation is skipped without counting toward beta.
_STOP_SURFACES = {".", ";", ":"}

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


class Vocabulary:
    """Word-level vocabulary with reserved pad/OOV/mask ids.

    Nothing pads a sequence, but id 0 stays reserved for ``[PAD]``:
    freeing it would shift every word id by one and so every embedding
    row a checkpoint holds.
    """

    def __init__(self, words: Sequence[str] = ()):
        self.word2id = {PAD_TOKEN: PAD_ID, OOV_TOKEN: OOV_ID, MASK_TOKEN: MASK_ID}
        for w in words:
            if w not in self.word2id:
                self.word2id[w] = len(self.word2id)

    def __len__(self) -> int:
        return len(self.word2id)

    def __contains__(self, word: str) -> bool:
        return word in self.word2id

    def lookup(self, word: str) -> int:
        return self.word2id.get(word, OOV_ID)

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        """Vocabulary in first-appearance order over tokenized texts."""
        words = []
        seen = set()
        for text in texts:
            for w in _TOKEN_RE.findall(text.lower()):
                if w not in seen:
                    seen.add(w)
                    words.append(w)
        return cls(words)


@dataclass
class TokenSeq:
    """A tokenized text with aligned surfaces and vocabulary ids.

    Positions are the list indices; every position is a real token.
    ``boundary`` is the index of the first appended (distilled) token
    when two texts were joined, else None.
    """

    surfaces: list
    ids: np.ndarray
    boundary: Optional[int] = None

    def __post_init__(self):
        if len(self.surfaces) != len(self.ids):
            raise ValueError("TokenSeq: surfaces and ids length mismatch")

    def __len__(self) -> int:
        return len(self.surfaces)


@dataclass(frozen=True)
class EntityMention:
    entity: str          # canonical lexicon word
    token_index: int
    surface: str         # as it appears, possibly plural


@dataclass(frozen=True)
class DescriptorSpan:
    token_indices: tuple   # sorted, each < mention index
    polarity: str
    mention_index: int     # token index of the owning mention
    entity: str

    def surfaces(self, seq: TokenSeq) -> list:
        return [seq.surfaces[i] for i in self.token_indices]

    def text(self, seq: TokenSeq) -> str:
        return " ".join(self.surfaces(seq))


def tokenize(text: str, vocab: Vocabulary, max_len: Optional[int] = None) -> TokenSeq:
    """Lowercase word-level tokenization; punctuation keeps its own token.

    With ``max_len`` only the first ``max_len`` tokens are kept; a
    shorter text stays short, since nothing pads. Raises on
    ``max_len < 1`` and on text that normalizes to nothing.
    """
    if max_len is not None and max_len < 1:
        raise ValueError(f"tokenize: max_len {max_len} < 1")
    surfaces = _TOKEN_RE.findall(text.lower())[:max_len]
    if not surfaces:
        raise ValueError("tokenize: empty text after normalization")
    ids = np.array([vocab.lookup(w) for w in surfaces], dtype=np.int64)
    return TokenSeq(surfaces=surfaces, ids=ids)


def fold_plural(word: str, lexicon: frozenset) -> Optional[str]:
    """Map a surface to its lexicon word, stripping one trailing s."""
    if word in lexicon:
        return word
    if word.endswith("s") and word[:-1] in lexicon:
        return word[:-1]
    return None


def match_entities(seq: TokenSeq, lexicon: frozenset = DEFAULT_ENTITY_LEXICON) -> list:
    """All lexicon mentions in order; one mention per matching token."""
    mentions = []
    for pos in range(len(seq)):
        canonical = fold_plural(seq.surfaces[pos], lexicon)
        if canonical is not None:
            mentions.append(EntityMention(entity=canonical, token_index=pos, surface=seq.surfaces[pos]))
    return mentions


def extract_descriptors(
    seq: TokenSeq,
    mentions: Sequence[EntityMention],
    beta: int = DEFAULT_BETA,
) -> list:
    """One DescriptorSpan per mention: up to ``beta`` preceding words.

    Walking left from each mention, other mention positions are skipped
    without counting toward beta; sentence-ending punctuation, the
    original/appended boundary, and territory already claimed by a
    mention further left all stop the walk, so every word index lands in
    the span of its nearest following mention.
    """
    if beta < 0:
        raise ValueError(f"extract_descriptors: beta {beta} < 0")
    mention_positions = {m.token_index for m in mentions}
    claimed = set()
    spans = []
    for m in sorted(mentions, key=lambda m: m.token_index):
        if seq.boundary is not None and m.token_index >= seq.boundary:
            floor = seq.boundary
        else:
            floor = 0
        collected = []
        i = m.token_index - 1
        while i >= floor and len(collected) < beta:
            if i in mention_positions:
                i -= 1  # entity words are never descriptors; window extends
                continue
            surface = seq.surfaces[i]
            if surface in _STOP_SURFACES:
                break
            if i in claimed:
                break
            if not surface.isalnum():
                i -= 1  # clause punctuation: skip, uncounted
                continue
            collected.append(i)
            claimed.add(i)
            i -= 1
        indices = tuple(sorted(collected))
        negated = any(seq.surfaces[i] in DEFAULT_NEGATION_TERMS for i in indices)
        polarity = POLARITY_NEGATIVE if negated else POLARITY_OTHER
        spans.append(
            DescriptorSpan(
                token_indices=indices,
                polarity=polarity,
                mention_index=m.token_index,
                entity=m.entity,
            )
        )
    return spans


@dataclass
class AnnotatedReport:
    """A tokenized report with its mentions and aligned descriptor spans."""

    seq: TokenSeq
    mentions: list
    spans: list  # spans[i] belongs to mentions[i]

    def __post_init__(self):
        if len(self.mentions) != len(self.spans):
            raise ValueError("AnnotatedReport: mentions and spans must align")


def annotate(
    seq: TokenSeq,
    lexicon: frozenset = DEFAULT_ENTITY_LEXICON,
    beta: int = DEFAULT_BETA,
) -> AnnotatedReport:
    mentions = match_entities(seq, lexicon)
    spans = extract_descriptors(seq, mentions, beta=beta)
    return AnnotatedReport(seq=seq, mentions=mentions, spans=spans)


@dataclass
class CorpusStats:
    """Descriptor statistics over an annotated corpus.

    Span counts (``n_neg``/``n_oth``) cover non-empty spans only; the
    aligned word-level counts (``n_neg_tokens``/``n_oth_tokens``) feed the
    loss re-balancing, which weights individual masked tokens.
    """

    entity_counts: dict
    descriptor_counts: dict
    n_neg: int
    n_oth: int
    n_neg_tokens: int
    n_oth_tokens: int
    imbalance_ratio: float


def compute_stats(docs: Sequence[AnnotatedReport]) -> CorpusStats:
    """Aggregate entity and descriptor counts; order-independent."""
    if not docs:
        raise ValueError("compute_stats: empty corpus")
    entity_counts: Counter = Counter()
    descriptor_counts: Counter = Counter()
    n_neg = n_oth = 0
    n_neg_tokens = n_oth_tokens = 0
    for doc in docs:
        for m in doc.mentions:
            entity_counts[m.entity] += 1
        for span in doc.spans:
            if not span.token_indices:
                continue
            descriptor_counts[span.text(doc.seq)] += 1
            if span.polarity == POLARITY_NEGATIVE:
                n_neg += 1
                n_neg_tokens += len(span.token_indices)
            else:
                n_oth += 1
                n_oth_tokens += len(span.token_indices)
    ratio = n_neg / max(n_oth, 1)
    return CorpusStats(
        entity_counts=dict(entity_counts),
        descriptor_counts=dict(descriptor_counts),
        n_neg=n_neg,
        n_oth=n_oth,
        n_neg_tokens=n_neg_tokens,
        n_oth_tokens=n_oth_tokens,
        imbalance_ratio=ratio,
    )


def load_word_list(path) -> frozenset:
    """One lowercase word per line; blank lines and # comments ignored."""
    words = set()
    for line in Path(path).read_text().splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    if not words:
        raise ValueError(f"load_word_list: no words in {path}")
    return frozenset(words)
