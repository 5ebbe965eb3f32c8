"""Synthetic corpus generator: pairing, grammar loop-closure, attention maps."""

import numpy as np
import pytest

from pairmask import corpus, synthgen


def small_spec(**kw):
    defaults = dict(canvas=32, seed=5)
    defaults.update(kw)
    return synthgen.SynthSpec(**defaults)


class TestGeneration:
    def test_deterministic_and_prefix_stable(self):
        spec = small_spec()
        a = synthgen.gen_dataset(spec, 6)
        b = synthgen.gen_dataset(spec, 6)
        for x, y in zip(a, b):
            assert x.report == y.report
            np.testing.assert_array_equal(x.image, y.image)
        # sample i does not depend on dataset size
        c = synthgen.gen_dataset(spec, 3)
        for x, y in zip(c, a):
            assert x.report == y.report
            np.testing.assert_array_equal(x.image, y.image)

    def test_image_range_and_dtype(self):
        for s in synthgen.gen_dataset(small_spec(), 8):
            assert s.image.dtype == np.float32
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.image.shape == (32, 32)

    def test_one_sentence_per_entity(self):
        spec = small_spec()
        for s in synthgen.gen_dataset(spec, 5):
            assert s.report.count(".") == len(spec.entities)
            for entity in spec.entities:
                assert entity in s.report
                assert s.labels[entity] in (synthgen.LABEL_PRESENT, synthgen.LABEL_ABSENT)

    def test_mask_nonzero_iff_any_present(self):
        spec = small_spec(p_positive=0.5)
        for s in synthgen.gen_dataset(spec, 30):
            any_present = any(v == synthgen.LABEL_PRESENT for v in s.labels.values())
            assert bool(s.lesion_mask.any()) == any_present

    def test_severity_intensity_visible_in_image(self):
        # a present finding pushes pixels to at least the mild intensity
        spec = small_spec(p_positive=0.999)
        s = synthgen.gen_dataset(spec, 1)[0]
        assert s.image.max() >= min(synthgen.SEVERITY_INTENSITY.values()) - 1e-6

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="canvas"):
            synthgen.SynthSpec(canvas=30)
        with pytest.raises(ValueError, match="p_positive"):
            synthgen.SynthSpec(p_positive=0.0)
        with pytest.raises(ValueError, match="shapes"):
            synthgen.SynthSpec(entities={"edema": "triangle"})


class TestGrammarLoopClosure:
    """Generated spans must be recovered exactly by the corpus pipeline."""

    def test_spans_round_trip(self):
        spec = small_spec(p_positive=0.4)
        samples = synthgen.gen_dataset(spec, 40)
        vocab = corpus.Vocabulary.from_texts([s.report for s in samples])
        for s in samples:
            ann = corpus.annotate(corpus.tokenize(s.report, vocab))
            assert len(ann.mentions) == len(spec.entities)
            for mention, span in zip(ann.mentions, ann.spans):
                words = span.surfaces(ann.seq)
                status = s.labels[mention.entity]
                if status == synthgen.LABEL_ABSENT:
                    assert words == ["is", "no"]
                    assert span.polarity == corpus.POLARITY_NEGATIVE
                else:
                    assert words[0] == "is"
                    assert words[1] in synthgen.SEVERITY_INTENSITY
                    assert span.polarity == corpus.POLARITY_OTHER

    def test_imbalance_ratio_near_twenty(self):
        spec = small_spec(seed=11)  # default p_positive = 1/21
        samples = synthgen.gen_dataset(spec, 1500)
        vocab = corpus.Vocabulary.from_texts([s.report for s in samples])
        docs = [corpus.annotate(corpus.tokenize(s.report, vocab)) for s in samples]
        stats = corpus.compute_stats(docs)
        assert 16.0 < stats.imbalance_ratio < 25.0


def brute_force_blur(mask):
    kernel = np.outer([1, 4, 6, 4, 1], [1, 4, 6, 4, 1]) / 256.0
    h, w = mask.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += mask[ii, jj] * kernel[di + 2, dj + 2]
            out[i, j] = acc
    return out / out.max() if out.max() > 0 else out


class TestAttention:
    def test_matches_brute_force_blur(self):
        rng = np.random.default_rng(3)
        mask = (rng.random((12, 12)) < 0.15).astype(np.float32)
        mask[0, 0] = 1.0  # exercise the zero-padded border
        got = synthgen.attention_map(mask)
        np.testing.assert_allclose(got, brute_force_blur(mask), atol=1e-6)

    def test_equals_scipy_convolve_bit_for_bit(self):
        # scipy's 2-D convolution is the reference the separable blur replaced
        from scipy.ndimage import convolve

        kernel = np.outer([1, 4, 6, 4, 1], [1, 4, 6, 4, 1]) / 256.0
        masks = [s.lesion_mask for s in synthgen.gen_dataset(small_spec(p_positive=0.5, seed=8), 40)]
        rng = np.random.default_rng(9)
        for _ in range(40):
            shape = tuple(rng.integers(1, 20, size=2))
            masks.append((rng.random(shape) < rng.uniform(0.02, 0.6)).astype(np.float32))
        edge = np.zeros((10, 13), dtype=np.float32)
        edge[0, :3] = edge[9, 12] = edge[4:7, 0] = 1.0
        masks += [edge, np.ones((5, 5), dtype=np.float32)]
        assert sum(m.any() for m in masks) > 60
        assert sum(bool(m[[0, -1]].any() or m[:, [0, -1]].any()) for m in masks) > 20
        for mask in masks:
            blurred = convolve(mask.astype(np.float64), kernel, mode="constant", cval=0.0)
            want = (blurred / blurred.max() if blurred.max() > 0 else blurred).astype(np.float32)
            np.testing.assert_array_equal(synthgen.attention_map(mask), want)

    def test_zero_mask_zero_map(self):
        a = synthgen.attention_map(np.zeros((16, 16), dtype=np.float32))
        assert not a.any()

    def test_range_and_peak(self):
        mask = np.zeros((24, 24), dtype=np.float32)
        mask[10:14, 10:14] = 1.0
        a = synthgen.attention_map(mask)
        assert a.min() >= 0.0
        assert a.max() == pytest.approx(1.0)

    def test_halo_strictly_contains_lesion(self):
        mask = np.zeros((24, 24), dtype=np.float32)
        mask[10:14, 10:14] = 1.0
        a = synthgen.attention_map(mask)
        assert np.all(a[mask > 0] > 0)
        assert (a > 0).sum() > (mask > 0).sum()

    def test_stored_attention_is_the_map_of_the_lesion_mask(self, tmp_path):
        samples = synthgen.gen_dataset(small_spec(p_positive=0.5), 4)
        synthgen.save_dataset(samples, tmp_path)
        for s in samples + synthgen.load_dataset(tmp_path):
            np.testing.assert_array_equal(s.attention, synthgen.attention_map(s.lesion_mask))


class TestDownsample:
    def test_matches_explicit_pooling_loop(self):
        rng = np.random.default_rng(4)
        img = rng.random((8, 8)).astype(np.float32)
        got = synthgen.downsample(img, 2)
        expected = np.zeros((4, 4), dtype=np.float32)
        for i in range(4):
            for j in range(4):
                expected[i, j] = img[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            synthgen.downsample(np.zeros((9, 9)), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_bits_equal_numpy_mean_on_c_order(self, factor, dtype):
        rng = np.random.default_rng(40 + factor)
        for h, w in ((6, 5), (3, 7), (16, 16)):
            img = (rng.normal(size=(h * factor, w * factor)) * 1e3).astype(dtype)
            img[rng.random(img.shape) < 0.2] = -0.0
            want = img.reshape(h, factor, w, factor).mean(axis=(1, 3)).astype(dtype)
            got = synthgen.downsample(img, factor)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            # the bits do not follow the memory layout
            assert synthgen.downsample(np.asfortranarray(img), factor).tobytes() == want.tobytes()

    @pytest.mark.parametrize("factor", [2, 3])
    def test_batch_equals_each_image(self, factor):
        rng = np.random.default_rng(45)
        stack = rng.random((2, 3, 6 * factor, 4 * factor)).astype(np.float32)
        got = synthgen.downsample(stack, factor)
        assert got.shape == (2, 3, 6, 4)
        for i, j in np.ndindex(2, 3):
            assert got[i, j].tobytes() == synthgen.downsample(stack[i, j].copy(), factor).tobytes()

    def test_generated_and_reloaded_pool_alike(self, tmp_path):
        samples = synthgen.gen_dataset(small_spec(p_positive=0.5, seed=3), 32)
        synthgen.save_dataset(samples, tmp_path)
        for s, r in zip(samples, synthgen.load_dataset(tmp_path)):
            assert s.image.flags.c_contiguous and s.lesion_mask.flags.c_contiguous
            assert synthgen.downsample(s.image).tobytes() == synthgen.downsample(r.image).tobytes()
            # reductions whose order follows the memory layout agree as well
            assert s.image.mean(axis=0).tobytes() == r.image.mean(axis=0).tobytes()


class TestRoundTripIO:
    def test_save_load_bitwise(self, tmp_path):
        samples = synthgen.gen_dataset(small_spec(p_positive=0.5), 4)
        synthgen.save_dataset(samples, tmp_path)
        loaded = synthgen.load_dataset(tmp_path)
        assert [s.id for s in loaded] == [s.id for s in samples]
        for a, b in zip(samples, loaded):
            assert a.report == b.report
            assert a.labels == b.labels
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.lesion_mask, b.lesion_mask)
            np.testing.assert_array_equal(a.attention, b.attention)

    @pytest.mark.parametrize("kind", ["images", "masks"])
    def test_a_file_of_the_wrong_size_names_the_file_and_sample(self, tmp_path, kind):
        samples = synthgen.gen_dataset(small_spec(p_positive=0.5), 4)
        synthgen.save_dataset(samples, tmp_path)
        sid = samples[2].id
        path = tmp_path / kind / f"{sid}.f32"
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match=rf"{kind}/{sid}\.f32: sample {sid} has 100 bytes, not 4096"):
            synthgen.load_dataset(tmp_path)

    def test_a_report_without_a_manifest_row_names_the_sample(self, tmp_path):
        samples = synthgen.gen_dataset(small_spec(p_positive=0.5), 4)
        synthgen.save_dataset(samples, tmp_path)
        manifest = tmp_path / "manifest.tsv"
        rows = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(rows[:1] + rows[2:]))
        with pytest.raises(ValueError, match=rf"manifest\.tsv: no row for sample {samples[1].id}"):
            synthgen.load_dataset(tmp_path)
