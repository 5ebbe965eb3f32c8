"""Mask planning and patch slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairmask import autodiff as ad
from pairmask import corpus, masking


def seq_of(n):
    surfaces = [f"w{i}" for i in range(n)]
    return corpus.TokenSeq(surfaces=surfaces, ids=np.arange(3, 3 + n, dtype=np.int64))


def span_at(indices, polarity, mention_index=None):
    mention_index = mention_index if mention_index is not None else (max(indices) + 1 if indices else 0)
    return corpus.DescriptorSpan(
        token_indices=tuple(indices), polarity=polarity, mention_index=mention_index, entity="edema"
    )


class TestTextPlan:
    def test_counts_match_spec_example(self):
        # 12 tokens, one 2-index descriptor span: 10 candidates,
        # round(0.75 * 10) = 8 random, 2 visible
        seq = seq_of(12)
        plan = masking.plan_text_mask(
            seq, [span_at((1, 2), corpus.POLARITY_OTHER)], np.random.default_rng(0)
        )
        assert plan.descriptor_oth == (1, 2)
        assert len(plan.random) == 8
        assert len(plan.visible) == 2
        assert len(plan.masked) == 10

    def test_no_spans_eight_tokens(self):
        plan = masking.plan_text_mask(seq_of(8), [], np.random.default_rng(1))
        assert len(plan.random) == 6
        assert len(plan.visible) == 2

    def test_partition_of_non_pads(self):
        seq = seq_of(13)
        spans = [span_at((0, 1), corpus.POLARITY_NEGATIVE), span_at((5,), corpus.POLARITY_OTHER)]
        plan = masking.plan_text_mask(seq, spans, np.random.default_rng(2))
        sets = [plan.descriptor_neg, plan.descriptor_oth, plan.random, plan.visible]
        union = sorted(sum(sets, ()))
        assert union == list(range(13))  # partition exact
        flat = sum(len(s) for s in sets)
        assert flat == 13  # pairwise disjoint

    def test_descriptors_always_masked_any_seed(self):
        seq = seq_of(20)
        spans = [span_at((3, 4), corpus.POLARITY_NEGATIVE), span_at((10,), corpus.POLARITY_OTHER)]
        for seed in range(50):
            plan = masking.plan_text_mask(seq, spans, np.random.default_rng(seed))
            assert set((3, 4)) <= set(plan.masked)
            assert 10 in plan.masked

    def test_seeded_determinism(self):
        seq = seq_of(31)
        spans = [span_at((2,), corpus.POLARITY_OTHER)]
        a = masking.plan_text_mask(seq, spans, np.random.default_rng(77))
        b = masking.plan_text_mask(seq, spans, np.random.default_rng(77))
        assert a == b

    def test_ratio_zero_and_one(self):
        seq = seq_of(10)
        z = masking.plan_text_mask(seq, [], np.random.default_rng(0), ratio=0.0)
        assert z.random == () and len(z.visible) == 10
        o = masking.plan_text_mask(seq, [], np.random.default_rng(0), ratio=1.0)
        assert o.visible == () and len(o.random) == 10

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="ratio"):
            masking.plan_text_mask(seq_of(4), [], np.random.default_rng(0), ratio=1.5)

    def test_span_past_the_end_rejected(self):
        seq = seq_of(4)
        with pytest.raises(ValueError, match="index 5 outside a sequence of length 4"):
            masking.plan_text_mask(seq, [span_at((5,), corpus.POLARITY_OTHER)], np.random.default_rng(0))


class TestApply:
    def test_exact_mask_token_count(self):
        seq = seq_of(12)
        plan = masking.plan_text_mask(
            seq, [span_at((1, 2), corpus.POLARITY_OTHER)], np.random.default_rng(3)
        )
        masked = masking.apply_text_mask(seq, plan, mask_id=2)
        assert int((masked == 2).sum()) == 10
        # original retained: targets recoverable at masked positions
        for pos in plan.masked:
            assert seq.ids[pos] != 2
        assert seq.ids[0] == 3

    def test_visible_positions_untouched(self):
        seq = seq_of(9)
        plan = masking.plan_text_mask(seq, [], np.random.default_rng(4))
        masked = masking.apply_text_mask(seq, plan, mask_id=2)
        for pos in plan.visible:
            assert masked[pos] == seq.ids[pos]

    def test_length_mismatch_rejected(self):
        plan = masking.plan_text_mask(seq_of(6), [], np.random.default_rng(5))
        with pytest.raises(ValueError, match="length"):
            masking.apply_text_mask(seq_of(7), plan, mask_id=2)


class TestPatchPlan:
    def test_exact_count_and_partition(self):
        plan = masking.plan_patch_mask(16, np.random.default_rng(0))
        assert len(plan.masked) == 12
        assert len(plan.visible) == 4
        assert sorted(plan.masked + plan.visible) == list(range(16))

    def test_determinism(self):
        a = masking.plan_patch_mask(16, np.random.default_rng(9))
        b = masking.plan_patch_mask(16, np.random.default_rng(9))
        assert a == b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="ratio"):
            masking.plan_patch_mask(16, np.random.default_rng(0), ratio=-0.1)
        with pytest.raises(ValueError, match="n_patches"):
            masking.plan_patch_mask(0, np.random.default_rng(0))

    def test_frequency_is_roughly_uniform(self):
        # finite-population corrected chi-square; full test in acceptance
        draws = 2000
        n = 16
        counts = np.zeros(n)
        for seed in range(draws):
            plan = masking.plan_patch_mask(n, np.random.default_rng(seed))
            counts[list(plan.masked)] += 1
        p = 0.75
        expected = draws * p
        stat = ((counts - expected) ** 2).sum() * (n - 1) / (draws * p * (1 - p) * n)
        from scipy.stats import chi2

        assert stat < chi2.ppf(0.99, n - 1)


class TestPatchify:
    def test_four_by_four_patch_two(self):
        img = np.arange(16.0).reshape(4, 4)
        patches = masking.patchify(img, 2)
        np.testing.assert_array_equal(patches[0], [0.0, 1.0, 4.0, 5.0])
        np.testing.assert_array_equal(patches[1], [2.0, 3.0, 6.0, 7.0])
        np.testing.assert_array_equal(patches[3], [10.0, 11.0, 14.0, 15.0])

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(32, 32))
        back = masking.unpatchify_t(ad.constant(masking.patchify(img, 8), dtype=np.float64), 32, 32, 8)
        np.testing.assert_array_equal(back.data, img)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            masking.patchify(np.zeros((10, 10)), 4)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    gh=st.integers(min_value=1, max_value=4),
    gw=st.integers(min_value=1, max_value=4),
    patch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_patchify_round_trip_property(lead, gh, gw, patch, seed):
    h, w = gh * patch, gw * patch
    img = np.random.default_rng(seed).normal(size=(*lead, h, w))
    patches = masking.patchify(img, patch)
    assert patches.shape == (*lead, gh * gw, patch * patch)
    # each sample's rows are that image's own patches
    for i in np.ndindex(*lead):
        np.testing.assert_array_equal(patches[i], masking.patchify(img[i], patch))
    back = masking.unpatchify_t(ad.constant(patches, dtype=np.float64), h, w, patch)
    np.testing.assert_array_equal(back.data, img)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_plan_invariants_property(n, seed, ratio):
    seq = seq_of(n)
    span_idx = (0,) if n > 1 else ()
    spans = [span_at(span_idx, corpus.POLARITY_NEGATIVE, mention_index=1)] if span_idx else []
    plan = masking.plan_text_mask(seq, spans, np.random.default_rng(seed), ratio=ratio)
    n_desc = len(plan.descriptor_neg) + len(plan.descriptor_oth)
    assert len(plan.random) == masking.exact_count(ratio, n - n_desc)
    union = sorted(plan.descriptor_neg + plan.descriptor_oth + plan.random + plan.visible)
    assert union == list(range(n))
