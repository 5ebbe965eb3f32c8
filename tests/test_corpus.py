"""Corpus processing: tokenization, mentions, descriptor spans, stats."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairmask import corpus


def make_seq(text, vocab=None, **kw):
    if vocab is None:
        vocab = corpus.Vocabulary.from_texts([text])
    return corpus.tokenize(text, vocab, **kw)


class TestTokenize:
    def test_basic_sentence(self):
        seq = make_seq("There is mild pneumonia.")
        assert seq.surfaces == ["there", "is", "mild", "pneumonia", "."]
        assert len(seq.ids) == 5

    def test_oov_maps_to_reserved_id(self):
        vocab = corpus.Vocabulary.from_texts(["known words only"])
        seq = corpus.tokenize("known zebra", vocab)
        assert seq.ids[0] == vocab.word2id["known"]
        assert seq.ids[1] == corpus.OOV_ID

    def test_pad_and_truncate(self):
        vocab = corpus.Vocabulary.from_texts(["a b c"])
        assert len(corpus.tokenize("a b c", vocab, max_len=5)) == 3
        truncated = corpus.tokenize("a b c", vocab, max_len=2)
        assert truncated.surfaces == ["a", "b"]

    def test_empty_text_raises(self):
        vocab = corpus.Vocabulary()
        with pytest.raises(ValueError, match="empty"):
            corpus.tokenize("   \n ", vocab)

    def test_specials_have_fixed_ids(self):
        vocab = corpus.Vocabulary.from_texts(["anything"])
        assert vocab.word2id[corpus.PAD_TOKEN] == 0
        assert vocab.word2id[corpus.OOV_TOKEN] == 1
        assert vocab.word2id[corpus.MASK_TOKEN] == 2


class TestMatchEntities:
    def test_default_lexicon_size(self):
        assert len(corpus.DEFAULT_ENTITY_LEXICON) == 44

    def test_exact_and_plural_match(self):
        seq = make_seq("bilateral effusions with pneumonia")
        mentions = corpus.match_entities(seq)
        assert [(m.entity, m.token_index, m.surface) for m in mentions] == [
            ("effusion", 1, "effusions"),
            ("pneumonia", 3, "pneumonia"),
        ]

    def test_non_entity_words_ignored(self):
        seq = make_seq("the lungs look wonderful today")
        assert corpus.match_entities(seq) == []


class TestExtractDescriptors:
    def test_two_preceding_words(self):
        seq = make_seq("There is mild pneumonia.")
        ann = corpus.annotate(seq)
        assert len(ann.spans) == 1
        assert ann.spans[0].token_indices == (1, 2)
        assert ann.spans[0].surfaces(seq) == ["is", "mild"]

    def test_adjacent_mentions_dedup(self):
        # spans never contain entity tokens and each word index goes to
        # the nearest following mention
        seq = make_seq("no edema no effusion")
        ann = corpus.annotate(seq)
        assert [s.token_indices for s in ann.spans] == [(0,), (2,)]

    def test_clip_at_sequence_start(self):
        seq = make_seq("pneumonia persists")
        ann = corpus.annotate(seq)
        assert ann.spans[0].token_indices == ()

    def test_sentence_boundary_stops_span(self):
        seq = make_seq("no change. mild edema")
        ann = corpus.annotate(seq)
        (span,) = ann.spans
        assert span.surfaces(seq) == ["mild"]

    def test_never_crosses_concat_boundary(self):
        vocab = corpus.Vocabulary.from_texts(["very mild pneumonia"])
        seq = corpus.tokenize("very mild pneumonia", vocab)
        seq = corpus.TokenSeq(surfaces=seq.surfaces, ids=seq.ids, boundary=2)
        mentions = corpus.match_entities(seq)
        assert mentions[0].token_index == 2  # first token of appended text
        spans = corpus.extract_descriptors(seq, mentions)
        assert spans[0].token_indices == ()

    def test_comma_is_skipped_not_counted(self):
        seq = make_seq("mild , patchy edema")
        ann = corpus.annotate(seq)
        assert ann.spans[0].surfaces(seq) == ["mild", "patchy"]

    def test_gap_invariant(self):
        # gap < beta + number of intervening skipped entity tokens
        seq = make_seq("faint large mass nodule opacity")
        ann = corpus.annotate(seq)
        for span in ann.spans:
            if not span.token_indices:
                continue
            skipped = sum(
                1
                for m in ann.mentions
                if min(span.token_indices) < m.token_index < span.mention_index
            )
            gap = span.mention_index - min(span.token_indices)
            assert gap < corpus.DEFAULT_BETA + skipped + 1

    def test_all_indices_precede_mention(self):
        seq = make_seq("there is severe consolidation and no pneumothorax today")
        ann = corpus.annotate(seq)
        for span in ann.spans:
            assert all(i < span.mention_index for i in span.token_indices)


class TestPolarity:
    def test_negation_word_flips_negative(self):
        seq = make_seq("there is no pneumonia.")
        ann = corpus.annotate(seq)
        assert ann.spans[0].polarity == corpus.POLARITY_NEGATIVE

    def test_plain_descriptor_is_other(self):
        seq = make_seq("there is mild pneumonia.")
        ann = corpus.annotate(seq)
        assert ann.spans[0].polarity == corpus.POLARITY_OTHER

    def test_clear_counts_as_negation(self):
        # "lungs are clear" family: negated finding
        seq = make_seq("lungs clear effusion")
        ann = corpus.annotate(seq)
        assert ann.spans[0].polarity == corpus.POLARITY_NEGATIVE

    def test_empty_span_is_other(self):
        seq = make_seq("pneumonia noted")
        ann = corpus.annotate(seq)
        assert ann.spans[0].polarity == corpus.POLARITY_OTHER


def brute_force_stats(docs):
    """Independent recount: per-document loops, no shared code paths."""
    entity = Counter()
    desc = Counter()
    neg = oth = neg_tok = oth_tok = 0
    for doc in docs:
        for m in doc.mentions:
            entity[m.entity] += 1
        for s in doc.spans:
            words = [doc.seq.surfaces[i] for i in s.token_indices]
            if not words:
                continue
            desc[" ".join(words)] += 1
            if any(w in corpus.DEFAULT_NEGATION_TERMS for w in words):
                neg += 1
                neg_tok += len(words)
            else:
                oth += 1
                oth_tok += len(words)
    return entity, desc, neg, oth, neg_tok, oth_tok


class TestStats:
    TOY_DOCS = [
        "there is mild pneumonia. no effusion.",
        "no pneumothorax. no effusion. moderate edema persists.",
        "lungs clear. no pneumonia.",
    ]

    def annotated(self, texts=None):
        texts = texts or self.TOY_DOCS
        vocab = corpus.Vocabulary.from_texts(texts)
        return [corpus.annotate(corpus.tokenize(t, vocab)) for t in texts]

    def test_matches_brute_force_recount(self):
        docs = self.annotated()
        stats = corpus.compute_stats(docs)
        entity, desc, neg, oth, neg_tok, oth_tok = brute_force_stats(docs)
        assert stats.entity_counts == dict(entity)
        assert stats.descriptor_counts == dict(desc)
        assert (stats.n_neg, stats.n_oth) == (neg, oth)
        assert (stats.n_neg_tokens, stats.n_oth_tokens) == (neg_tok, oth_tok)

    def test_frozen_toy_counts(self):
        # hand-counted: doc1 has [is, mild]->oth, [. no]->..., see below
        docs = self.annotated()
        stats = corpus.compute_stats(docs)
        # doc1: pneumonia span (is, mild) other; effusion span (no) negative
        # doc2: pneumothorax (no) neg; effusion (no) neg; edema (moderate) oth
        # doc3: pneumonia span (clear, no)? -> walk stops at "."; (no) neg
        assert stats.entity_counts == {
            "pneumonia": 2, "effusion": 2, "pneumothorax": 1, "edema": 1
        }
        assert stats.n_neg == 4
        assert stats.n_oth == 2
        assert stats.imbalance_ratio == 2.0

    def test_span_class_totals_add_up(self):
        docs = self.annotated()
        stats = corpus.compute_stats(docs)
        nonempty = sum(1 for d in docs for s in d.spans if s.token_indices)
        assert stats.n_neg + stats.n_oth == nonempty

    def test_permutation_invariant(self):
        docs = self.annotated()
        a = corpus.compute_stats(docs)
        b = corpus.compute_stats(list(reversed(docs)))
        assert a == b

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty"):
            corpus.compute_stats([])


WORDS = st.sampled_from(
    ["mild", "no", "severe", "pneumonia", "effusion", "is", "there", ".", "stable", "edema"]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=30))
def test_span_invariants_on_random_texts(words):
    text = " ".join(words)
    vocab = corpus.Vocabulary.from_texts([text])
    seq = corpus.tokenize(text, vocab)
    ann = corpus.annotate(seq)
    assert len(ann.spans) == len(ann.mentions)
    mention_positions = {m.token_index for m in ann.mentions}
    seen = set()
    for span in ann.spans:
        assert len(span.token_indices) <= corpus.DEFAULT_BETA
        for i in span.token_indices:
            assert i < span.mention_index
            assert i not in mention_positions  # never an entity token
            assert i not in seen  # spans are disjoint
            seen.add(i)
        assert span.polarity in (corpus.POLARITY_NEGATIVE, corpus.POLARITY_OTHER)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(WORDS, min_size=2, max_size=20), min_size=1, max_size=6))
def test_stats_permutation_invariance_property(texts):
    texts = [" ".join(ws) for ws in texts]
    vocab = corpus.Vocabulary.from_texts(texts)
    docs = [corpus.annotate(corpus.tokenize(t, vocab)) for t in texts]
    forward = corpus.compute_stats(docs)
    backward = corpus.compute_stats(list(reversed(docs)))
    assert forward == backward
