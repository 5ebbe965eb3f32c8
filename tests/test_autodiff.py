"""Operator-level checks for the reverse-mode engine.

The oracle throughout is central finite differences at float64
(grad_check); analytic backward implementations must agree to 1e-4
relative. Shape and graph-misuse errors are checked separately.
"""

import ast
import functools
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest
from reference_ops import eps_weighted_mse, grad_check, matmul, mse, scipy_gelu_gate, softmax, stacked_taps

from pairmask import autodiff as ad

RTOL = 1e-4
EPS = 1e-5


def t64(rng, *shape, lo=-1.0, hi=1.0):
    return ad.Tensor(rng.uniform(lo, hi, shape), requires_grad=True, dtype=np.float64)


def check(f, inputs, rtol=RTOL):
    err = grad_check(f, inputs, eps=EPS)
    assert err < rtol, f"max relative error {err:.3e}"


class TestForwardBasics:
    def test_matmul_forward(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
        out = matmul(a, b)
        np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.normal(size=(5, 7)))
        s = softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), rtol=1e-6)

    def test_softmax_extreme_logits_finite(self):
        # max subtraction keeps exp in range
        x = ad.constant(np.array([[1e4, -1e4, 0.0]]))
        s = softmax(x, axis=-1)
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data[0, 0], 1.0, atol=1e-6)

    def test_cross_entropy_extreme_logits_finite(self):
        x = ad.constant(np.array([[1e4, -1e4, 0.0]]), dtype=np.float64)
        nll = ad.cross_entropy_with_logits(x, np.array([1]))
        assert np.all(np.isfinite(nll.data))

    def test_layer_normalize_rows(self):
        rng = np.random.default_rng(1)
        x = ad.constant(rng.normal(size=(4, 8)), dtype=np.float64)
        g = ad.constant(np.ones(8), dtype=np.float64)
        b = ad.constant(np.zeros(8), dtype=np.float64)
        y = ad.layer_normalize(x, g, b)
        np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.data.std(axis=-1), np.ones(4), atol=1e-4)

    def test_bilinear_upsample_constant_preserved(self):
        x = ad.constant(np.full((4, 6), 0.37), dtype=np.float64)
        y = ad.bilinear_upsample(x)
        assert y.shape == (8, 12)
        np.testing.assert_allclose(y.data, 0.37, atol=1e-12)

    def test_bilinear_upsample_against_manual_2x(self):
        # hand-computed half-pixel-center upsample of a 2x2 image
        x = ad.constant(np.array([[0.0, 1.0], [2.0, 3.0]]), dtype=np.float64)
        y = ad.bilinear_upsample(x).data
        expected = np.array(
            [
                [0.0, 0.25, 0.75, 1.0],
                [0.5, 0.75, 1.25, 1.5],
                [1.5, 1.75, 2.25, 2.5],
                [2.0, 2.25, 2.75, 3.0],
            ]
        )
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_conv2d_matches_direct_loop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ad.conv2d(
            ad.constant(x, dtype=np.float64),
            ad.constant(w, dtype=np.float64),
            ad.constant(b, dtype=np.float64),
        ).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros((3, 5, 5))
        for o in range(3):
            for i in range(5):
                for j in range(5):
                    ref[o, i, j] = (w[o] * xp[:, i : i + 3, j : j + 3]).sum() + b[o]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 6)).astype(np.float32)
        a = ad.constant(x)
        one = softmax(matmul(a, a), axis=-1).data
        two = softmax(matmul(ad.constant(x), ad.constant(x)), axis=-1).data
        assert np.array_equal(one, two)

    def test_zero_d_constant_stays_zero_d(self):
        assert ad.constant(np.float64(2.0)).shape == ()
        assert ad.parameter(np.array(2.0), dtype=np.float64).shape == ()

    def test_contiguous_input_is_not_copied(self):
        x = np.arange(6.0).reshape(2, 3)
        assert ad.Tensor(x, dtype=np.float64).data is x
        strided = ad.Tensor(x.T, dtype=np.float64).data
        assert strided.flags.c_contiguous and np.array_equal(strided, x.T)


class TestGradients:
    """Each operator against the finite-difference oracle."""

    def test_matmul(self):
        rng = np.random.default_rng(10)
        a, b = t64(rng, 4, 3), t64(rng, 3, 5)
        check(lambda ts: ad.sum_all(matmul(ts[0], ts[1])), [a, b])

    def test_matmul_batched(self):
        rng = np.random.default_rng(11)
        a, b = t64(rng, 2, 4, 3), t64(rng, 2, 3, 4)
        check(lambda ts: ad.sum_all(matmul(ts[0], ts[1])), [a, b])

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(12)
        x, b = t64(rng, 5, 4), t64(rng, 4)
        check(lambda ts: mse(ad.add(ts[0], ts[1]), ad.constant(np.zeros((5, 4)), dtype=np.float64)), [x, b])

    def test_mul_broadcast(self):
        rng = np.random.default_rng(13)
        x, y = t64(rng, 5, 4), t64(rng, 4)
        check(lambda ts: ad.sum_all(ad.mul(ts[0], ts[1])), [x, y])

    def test_scale_transpose_reshape(self):
        rng = np.random.default_rng(14)
        x = t64(rng, 3, 4, 2)
        check(
            lambda ts: ad.sum_all(
                ad.mul(
                    ad.reshape(ad.transpose(ad.scale(ts[0], 1.7), (2, 0, 1)), (24,)),
                    ad.constant(np.arange(24.0), dtype=np.float64),
                )
            ),
            [x],
        )

    def test_concat_and_slice(self):
        rng = np.random.default_rng(15)
        a, b = t64(rng, 3, 4), t64(rng, 2, 4)
        w = ad.constant(np.random.default_rng(0).normal(size=(5, 4)), dtype=np.float64)

        def f(ts):
            cat = ad.concat([ts[0], ts[1]], axis=0)
            return ad.sum_all(ad.mul(cat, w))

        check(f, [a, b])

    def test_take_rows_with_duplicates(self):
        rng = np.random.default_rng(17)
        x = t64(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        w = ad.constant(rng.normal(size=(4, 3)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.take_rows(ts[0], idx), w)), [x])

    def test_take_rows_batched_per_sample_rows(self):
        rng = np.random.default_rng(24)
        x = t64(rng, 2, 4, 3)
        idx = np.array([[0, 2, 2, 3, 1], [3, 3, 0, 1, 1]])
        out = ad.take_rows(x, idx)
        assert np.array_equal(out.data, np.stack([x.data[0][idx[0]], x.data[1][idx[1]]]))
        w = ad.constant(rng.normal(size=(2, 5, 3)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.take_rows(ts[0], idx), w)), [x])

    def test_gather_sum(self):
        rng = np.random.default_rng(25)
        x = t64(rng, 3, 5)
        lists = [[4, 0, 0], [], [2]]
        out = ad.gather_sum(x, lists)
        np.testing.assert_array_equal(out.data, [x.data[0, [4, 0, 0]].sum(), 0.0, x.data[2, 2]])
        w = ad.constant(rng.normal(size=3), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.gather_sum(ts[0], lists), w)), [x])

    def test_conv2d_and_bilinear_batched(self):
        rng = np.random.default_rng(26)
        x, w, b = t64(rng, 3, 2, 4, 5), t64(rng, 2, 2, 3, 3), t64(rng, 2)
        m = ad.constant(rng.normal(size=(3, 2, 4, 5)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.conv2d(ts[0], ts[1], ts[2]), m)), [x, w, b])
        u = t64(rng, 3, 4, 5)
        mu = ad.constant(rng.normal(size=(3, 8, 10)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.bilinear_upsample(ts[0]), mu)), [u])

    def test_per_sample_losses(self):
        rng = np.random.default_rng(27)
        p, t = t64(rng, 3, 4, 5), ad.constant(rng.normal(size=(3, 4, 5)), dtype=np.float64)
        wts = rng.uniform(0.0, 1.0, size=(3, 4, 5))
        assert mse(p, t).shape == (3,) and ad.weighted_mse(p, t, wts).shape == (3,)
        v = ad.constant(rng.normal(size=3), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(mse(ts[0], t), v)), [p])
        check(lambda ts: ad.sum_all(ad.mul(ad.weighted_mse(ts[0], t, wts), v)), [p])
        logits = t64(rng, 2, 3, 6)
        ids = rng.integers(0, 6, size=(2, 3))
        w = ad.constant(rng.normal(size=(2, 3)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.cross_entropy_with_logits(ts[0], ids), w)), [logits])

    def test_embedding_lookup(self):
        rng = np.random.default_rng(18)
        table = t64(rng, 7, 4)
        ids = np.array([1, 1, 3, 6, 0])
        w = ad.constant(rng.normal(size=(5, 4)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.embedding_lookup(ts[0], ids), w)), [table])

    def test_layer_normalize(self):
        rng = np.random.default_rng(19)
        x, g, b = t64(rng, 4, 6), t64(rng, 6, lo=0.5, hi=1.5), t64(rng, 6)
        w = ad.constant(rng.normal(size=(4, 6)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.layer_normalize(ts[0], ts[1], ts[2]), w)), [x, g, b])

    def test_softmax(self):
        rng = np.random.default_rng(20)
        x = t64(rng, 3, 5)
        w = ad.constant(rng.normal(size=(3, 5)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(softmax(ts[0], axis=-1), w)), [x])

    def test_gelu(self):
        rng = np.random.default_rng(21)
        x = t64(rng, 4, 4, lo=-3.0, hi=3.0)
        check(lambda ts: ad.sum_all(ad.gelu(ts[0])), [x])

    def test_mean_axis_and_all(self):
        rng = np.random.default_rng(22)
        x = t64(rng, 5, 3)
        w = ad.constant(rng.normal(size=3), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.mean(ts[0], axis=0), w)), [x])
        check(lambda ts: ad.mean(ts[0]), [x])

    def test_mse(self):
        rng = np.random.default_rng(23)
        p, t = t64(rng, 4, 4), t64(rng, 4, 4)
        check(lambda ts: mse(ts[0], ts[1]), [p, t])

    def test_weighted_mse(self):
        rng = np.random.default_rng(24)
        p, t = t64(rng, 6, 6), t64(rng, 6, 6)
        w = np.random.default_rng(5).uniform(0.0, 1.0, (6, 6))
        check(lambda ts: ad.weighted_mse(ts[0], ts[1], w), [p, t])

    def test_weighted_mse_zero_weights_zero_loss(self):
        rng = np.random.default_rng(25)
        p, t = t64(rng, 4, 4), t64(rng, 4, 4)
        out = ad.weighted_mse(p, t, np.zeros((4, 4)))
        assert out.item() == 0.0
        ad.backward(out)
        assert not p.grad.any() and not t.grad.any()

    def test_cross_entropy(self):
        rng = np.random.default_rng(26)
        logits = t64(rng, 6, 9, lo=-2.0, hi=2.0)
        ids = np.random.default_rng(1).integers(0, 9, size=6)
        w = ad.constant(np.random.default_rng(2).uniform(0.5, 1.5, 6), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.cross_entropy_with_logits(ts[0], ids), w)), [logits])

    def test_conv2d(self):
        rng = np.random.default_rng(27)
        x, w, b = t64(rng, 2, 6, 5), t64(rng, 3, 2, 3, 3), t64(rng, 3)
        m = ad.constant(np.random.default_rng(3).normal(size=(3, 6, 5)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.conv2d(ts[0], ts[1], ts[2]), m)), [x, w, b])

    def test_bilinear_upsample(self):
        rng = np.random.default_rng(28)
        x = t64(rng, 4, 5)
        m = ad.constant(np.random.default_rng(4).normal(size=(8, 10)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.bilinear_upsample(ts[0]), m)), [x])

    def test_linear_2d_batched_and_vector(self):
        rng = np.random.default_rng(40)
        w, b = t64(rng, 4, 3), t64(rng, 3)
        for shape in ((5, 4), (2, 5, 4), (4,)):
            x = t64(rng, *shape)
            check(lambda ts: ad.sum_all(ad.mul(ad.linear(*ts), ad.linear(*ts))), [x, w, b])

    @staticmethod
    def _attention_inputs(rng, lead, lq, lk, d, self_attention):
        query = t64(rng, *lead, lq, d)
        kv = query if self_attention else t64(rng, *lead, lk, d)
        weights = [t64(rng, d, d) if i % 2 == 0 else t64(rng, d) for i in range(8)]
        return query, kv, weights

    @pytest.mark.parametrize(
        "lead, lq, lk, self_attention",
        [((), 4, 4, True), ((), 3, 5, False), ((2,), 4, 4, True), ((2,), 3, 2, False)],
        ids=["self", "cross", "batched-self", "batched-cross"],
    )
    def test_attention(self, lead, lq, lk, self_attention):
        rng = np.random.default_rng(41)
        query, kv, weights = self._attention_inputs(rng, lead, lq, lk, 6, self_attention)
        target = ad.constant(rng.normal(size=(*lead, lq, 6)), dtype=np.float64)

        def f(_):
            return ad.sum_all(ad.mul(ad.attention(query, kv, *weights, heads=2), target))

        # bk shifts every key of a query row by the same score, which the
        # softmax cancels: its true gradient is 0, and a relative finite-
        # difference error on 0 measures only round-off, so it is checked
        # in absolute terms below
        bk = weights[3]
        inputs = [query] + ([] if self_attention else [kv]) + [w for w in weights if w is not bk]
        check(f, inputs)
        bk.zero_grad()
        ad.backward(f(None))
        assert np.abs(bk.grad).max() < 1e-12

    def test_attention_self_has_one_input_edge(self):
        rng = np.random.default_rng(42)
        x, _, weights = self._attention_inputs(rng, (), 3, 3, 4, True)
        out = ad.attention(x, x, *weights, heads=2)
        assert out._parents[0] is x and x not in out._parents[1:]
        assert len(out._vjps) == len(out._parents) == 9

    def test_grad_accumulates_across_graphs(self):
        x = ad.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        ad.backward(ad.sum_all(ad.scale(x, 2.0)))
        ad.backward(ad.sum_all(ad.scale(x, 3.0)))
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))


class TestErrors:
    def test_matmul_shape_error_names_op(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((4, 2)))
        with pytest.raises(ad.ShapeError, match="matmul"):
            matmul(a, b)

    def test_backward_non_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(ad.scale(x, 2.0))

    def test_backward_twice_without_reset(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        loss = ad.sum_all(x)
        ad.backward(loss)
        with pytest.raises(ad.GraphError):
            ad.backward(loss)

    def test_backward_through_a_released_node(self):
        w = ad.parameter(np.ones(3))
        h = ad.scale(w, 2.0)
        ad.backward(ad.sum_all(h))
        assert h._parents == () and h._vjps == ()
        with pytest.raises(ad.GraphError, match="released"):
            ad.backward(ad.sum_all(ad.scale(h, 3.0)))
        # the refused walk added nothing
        np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])

    def test_embedding_out_of_range(self):
        table = ad.parameter(np.zeros((4, 2)))
        with pytest.raises(ad.ShapeError, match="embedding"):
            ad.embedding_lookup(table, np.array([0, 4]))

    def test_conv2d_channel_mismatch(self):
        x = ad.constant(np.zeros((2, 4, 4)))
        w = ad.constant(np.zeros((3, 1, 3, 3)))
        with pytest.raises(ad.ShapeError, match="conv2d"):
            ad.conv2d(x, w, ad.constant(np.zeros(3)))

    def test_linear_errors_name_the_input(self):
        x, w, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 5))), ad.constant(np.zeros(5))
        with pytest.raises(ad.ShapeError, match=r"linear: input x \(2, 3\).*weight w"):
            ad.linear(x, w, b)
        with pytest.raises(ad.ShapeError, match=r"linear: bias b \(3,\)"):
            ad.linear(ad.constant(np.zeros((2, 4))), w, ad.constant(np.zeros(3)))
        with pytest.raises(ad.ShapeError, match=r"linear: weight w must be 2-D"):
            ad.linear(x, ad.constant(np.zeros(3)), b)

    def test_attention_errors_name_the_input(self):
        d = 4
        weights = [ad.constant(np.zeros((d, d)) if i % 2 == 0 else np.zeros(d)) for i in range(8)]
        x = ad.constant(np.zeros((3, d)))
        bad = list(weights)
        bad[2] = ad.constant(np.zeros((d, d + 1)))
        with pytest.raises(ad.ShapeError, match=r"attention: wk \(4, 5\)"):
            ad.attention(x, x, *bad, heads=2)
        bad = list(weights)
        bad[7] = ad.constant(np.zeros(d + 1))
        with pytest.raises(ad.ShapeError, match=r"attention: bo \(5,\)"):
            ad.attention(x, x, *bad, heads=2)
        with pytest.raises(ad.ShapeError, match=r"attention: kv \(3, 5\) width"):
            ad.attention(x, ad.constant(np.zeros((3, d + 1))), *weights, heads=2)
        with pytest.raises(ad.ShapeError, match=r"leading dims of query \(2, 3, 4\) and kv \(3, 3, 4\)"):
            ad.attention(ad.constant(np.zeros((2, 3, d))), ad.constant(np.zeros((3, 3, d))), *weights, heads=2)
        with pytest.raises(ad.ShapeError, match=r"attention: query \(4,\)"):
            ad.attention(ad.constant(np.zeros(d)), x, *weights, heads=2)
        with pytest.raises(ad.ShapeError, match="heads 3"):
            ad.attention(x, x, *weights, heads=3)

    def test_mixed_dtype_rejected(self):
        a = ad.constant(np.zeros((2, 2)), dtype=np.float32)
        b = ad.constant(np.zeros((2, 2)), dtype=np.float64)
        with pytest.raises(ad.ShapeError, match="dtype"):
            ad.add(a, b)


class TestNoGrad:
    def test_records_no_graph_and_refuses_backward(self):
        w = ad.parameter(np.ones((3, 2)))
        b = ad.parameter(np.zeros(2))
        with ad.no_grad():
            out = ad.sum_all(ad.linear(ad.constant(np.ones((4, 3))), w, b))
        assert out._parents == () and out._vjps == () and not out.requires_grad
        with pytest.raises(ad.GraphError, match="no_grad"):
            ad.backward(out)
        assert w.grad is None and b.grad is None

    def test_nested_blocks_restore_the_outer_mode(self):
        w = ad.parameter(np.ones(2))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.scale(w, 2.0)._parents == ()
        assert ad.scale(w, 2.0)._parents == (w,)

    def test_mode_restored_after_an_exception(self):
        w = ad.parameter(np.ones(2))
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        loss = ad.sum_all(ad.scale(w, 2.0))
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    def test_graph_around_a_block_is_untouched(self):
        w = ad.parameter(np.ones(2))
        h = ad.scale(w, 3.0)
        with ad.no_grad():
            ad.scale(h, 5.0)
        ad.backward(ad.sum_all(h))
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])


class TestBatchedBitExact:
    """One node over a batch gives every sample the bits it gets alone.

    Each op runs once over (B, ...) float32 inputs and once per sample,
    where the per-sample gradients add into the parameter leaves one
    sample at a time; outputs and every gradient must be equal bit for
    bit. Folding the samples' rows into one matrix product, or summing a
    parameter's gradient over the batch before within a sample, breaks it.
    """

    @staticmethod
    def run(op, x, params):
        rng = np.random.default_rng(31)
        weights = None
        outs, grads = {}, {}
        for mode in ("batch", "per-sample"):
            ps = [ad.parameter(p) for p in params]
            if mode == "batch":
                xs = [ad.parameter(x)]
            else:
                xs = [ad.parameter(x[i]) for i in range(len(x))]
            rows = []
            for i, xi in enumerate(xs):
                out = op(xi, *ps)
                if weights is None:
                    weights = rng.normal(size=out.shape).astype(np.float32)
                w = weights if mode == "batch" else weights[i]
                ad.backward(ad.sum_all(ad.mul(out, ad.constant(w))))
                rows.append(out.data)
            outs[mode] = rows[0] if mode == "batch" else np.stack(rows)
            xg = xs[0].grad if mode == "batch" else np.stack([xi.grad for xi in xs])
            grads[mode] = [xg] + [p.grad for p in ps]
        assert np.array_equal(outs["batch"], outs["per-sample"])
        for got, want in zip(grads["batch"], grads["per-sample"]):
            assert np.array_equal(got, want)

    def test_linear(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(6, 5, 64)).astype(np.float32)
        self.run(ad.linear, x, [rng.normal(size=(64, 48)), rng.normal(size=48)])
        # one row per sample: the global-feature projection
        self.run(ad.linear, x[:, :1], [rng.normal(size=(64, 48)), rng.normal(size=48)])
        # eight samples of a one-number bias gradient
        x8 = rng.normal(size=(8, 3, 16)).astype(np.float32)
        self.run(ad.linear, x8, [rng.normal(size=(16, 1)), rng.normal(size=1)])

    def test_layer_normalize_and_gelu(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(6, 7, 32)).astype(np.float32)
        self.run(ad.layer_normalize, x, [rng.normal(size=32), rng.normal(size=32)])
        self.run(ad.gelu, x, [])

    def test_attention(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(5, 9, 32)).astype(np.float32)
        weights = [rng.normal(0, 0.3, size=(32, 32) if i % 2 == 0 else 32) for i in range(8)]
        self.run(lambda q, *w: ad.attention(q, q, *w, heads=4), x, weights)
        # one query row per sample attending over its other nine rows; at
        # width 64 a one-row product rounds differently from folded rows

        def cross(x, *w):
            lead = x.shape[:-2]
            query = ad.take_rows(x, np.broadcast_to(np.arange(1), lead + (1,)))
            kv = ad.take_rows(x, np.broadcast_to(np.arange(1, 10), lead + (9,)))
            return ad.attention(query, kv, *w, heads=4)

        x = rng.normal(size=(5, 10, 64)).astype(np.float32)
        weights = [rng.normal(0, 0.3, size=(64, 64) if i % 2 == 0 else 64) for i in range(8)]
        self.run(cross, x, weights)

    def test_conv2d_bilinear_and_losses(self):
        rng = np.random.default_rng(35)
        img = rng.normal(size=(4, 3, 12, 12)).astype(np.float32)
        self.run(ad.conv2d, img, [rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)])
        self.run(ad.bilinear_upsample, img[:, 0], [])
        target = rng.normal(size=(4, 12, 12)).astype(np.float32)
        weights = rng.uniform(0.0, 1.0, size=(4, 12, 12)).astype(np.float32)
        weights[2] = 0.0    # a slot whose weights sum to 0 divides by 1
        for loss in (lambda a, b, w: ad.weighted_mse(a, b, np.ones(w.shape)), ad.weighted_mse):
            x = ad.parameter(img[:, 0])
            batch = loss(x, ad.constant(target), weights)
            ad.backward(ad.sum_all(batch))
            for i in range(len(img)):
                xi = ad.parameter(img[i, 0])
                one = loss(xi, ad.constant(target[i]), weights[i])
                ad.backward(one)
                assert one.data == batch.data[i] and np.array_equal(xi.grad, x.grad[i])


def _lead_index(idx):
    """Index tuple pairing ``idx`` (..., K) with the leading axes it shares."""
    mesh = np.ix_(*(np.arange(n) for n in idx.shape[:-1]))
    return tuple(m[..., None] for m in mesh) + (idx,)


def _order_sensitive(rng, shape):
    """float32 values whose sums depend on the order they are added in."""
    return rng.choice([1e8, 1.0, -1e8, 3.0, -2.5e7], size=shape).astype(np.float32)


def _forward_and_vjp(op, x, g):
    """``op(x)`` and its vjp applied to ``g``, through ``backward``."""
    leaf = ad.parameter(x, dtype=x.dtype)
    out = op(leaf)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=g.dtype))))
    return out.data, leaf.grad


class TestScattersAndGeluBitExact:
    """The flat scatters and the saved GELU gate against the multi-axis
    ``np.add.at`` calls, per-row loop and gate-recomputing vjp they
    replaced, bit for bit. Duplicate indices land order-sensitive float32
    values on one entry, so a changed addition order shows.
    ``bilinear_upsample`` is no longer a scatter; its four-tap reference
    is held to the tolerance contract of ``TestConvAndBilinearContract``."""

    def test_take_rows(self):
        rng = np.random.default_rng(50)
        cases = [
            (rng.normal(size=6), rng.integers(0, 6, size=25)),
            (rng.normal(size=(6, 4)), rng.integers(0, 6, size=25)),
            (rng.normal(size=(3, 5, 2, 3)), rng.integers(0, 5, size=(3, 12))),
        ]
        for a, idx in cases:
            a = a.astype(np.float32)
            g = _order_sensitive(rng, idx.shape + a.shape[idx.ndim :])
            data, grad = _forward_and_vjp(lambda t: ad.take_rows(t, idx), a, g)
            want = np.zeros(a.shape, dtype=np.float32)
            np.add.at(want, _lead_index(idx), g)
            assert np.array_equal(data, a[_lead_index(idx)])
            assert np.array_equal(grad, want)

    def test_embedding_lookup(self):
        rng = np.random.default_rng(51)
        table = rng.normal(size=(7, 4)).astype(np.float32)
        for ids in (rng.integers(0, 7, size=30), rng.integers(0, 7, size=(3, 2, 15))):
            g = _order_sensitive(rng, ids.shape + (4,))
            data, grad = _forward_and_vjp(lambda t: ad.embedding_lookup(t, ids), table, g)
            per_sample = np.zeros(ids.shape[:-1] + table.shape, dtype=np.float32)
            np.add.at(per_sample, _lead_index(ids), g)
            assert np.array_equal(data, table[ids])
            assert np.array_equal(grad, ad._slot_sum(per_sample, 2))

    def test_gather_sum(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(2, 3, 6)).astype(np.float32)
        lists = [rng.integers(0, 6, size=n) for n in (9, 0, 4, 12, 1, 7)]
        # a row's entries receive copies of one value, so here the
        # positions, not the order, are what can go wrong
        g = _order_sensitive(rng, (2, 3))
        _, grad = _forward_and_vjp(lambda t: ad.gather_sum(t, lists), x, g)
        want = np.zeros((6, 6), dtype=np.float32)
        for row, i, gi in zip(want, lists, g.reshape(-1)):
            np.add.at(row, i, gi)
        assert np.array_equal(grad, want.reshape(x.shape))

    @pytest.mark.parametrize("factor", [2, 3])
    def test_bilinear_upsample(self, factor):
        # the separable matrices round differently from these four taps,
        # so this one is held to the stated tolerance, not bit for bit
        rng = np.random.default_rng(53)
        x = rng.normal(size=(3, 5, 7)).astype(np.float32)
        g = _order_sensitive(rng, (3, 5 * factor, 7 * factor))
        got = _forward_and_vjp(lambda t: ad.bilinear_upsample(t, factor), x, g)
        _assert_within_contract(got, _four_tap_bilinear(x, factor, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        rng = np.random.default_rng(54)
        x = rng.normal(scale=2.0, size=(3, 5, 16)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        data, grad = _forward_and_vjp(ad.gelu, x, g)
        # the vjp that recomputes the gate
        t = -0.5 * x
        t *= x
        np.exp(t, out=t)
        t *= ad._INV_SQRT2PI
        t *= x
        want = ad._gelu_gate(x)
        want += t
        want *= g
        assert np.array_equal(data, x * ad._gelu_gate(x))
        assert np.array_equal(grad, want)


# ---------------------------------------------------------------------------
# conv2d and bilinear_upsample: the replaced per-sample einsum and four-tap
# scatter as references, under a stated tolerance
# ---------------------------------------------------------------------------

# largest |got - want| allowed, as a fraction of max |want| of each output
CONTRACT_TOL = {np.dtype(np.float32): 2e-6, np.dtype(np.float64): 1e-10}


def _assert_within_contract(got, want, names=("forward", "vjp x", "vjp w", "vjp b")):
    assert len(got) == len(want) <= len(names)
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err <= CONTRACT_TOL[b.dtype], f"{name}: {err:.2e} of scale"


def _einsum_conv2d(x, w, b, g):
    """The per-sample einsum conv2d: output and the vjps of x, w, b for ``g``."""
    cin, h, wd = x.shape[-3:]
    cout = w.shape[0]
    samples, gs = x.reshape(-1, cin, h, wd), g.reshape(-1, cout, h, wd)
    w9 = w.reshape(cout, cin, 9)

    def windows(xs):
        xp = np.zeros((cin, h + 2, wd + 2), dtype=xs.dtype)
        xp[:, 1 : h + 1, 1 : wd + 1] = xs
        return np.stack([xp[:, di : di + h, dj : dj + wd] for di in range(3) for dj in range(3)])

    out, gx = np.empty(gs.shape, dtype=x.dtype), np.empty(samples.shape, dtype=x.dtype)
    for o, gxs, xs, gi in zip(out, gx, samples, gs):
        o[...] = np.einsum("ock,kchw->ohw", w9, windows(xs)) + b[:, None, None]
        gcols = np.einsum("ock,ohw->kchw", w9, gi)
        gxp = np.zeros((cin, h + 2, wd + 2), dtype=x.dtype)
        for k in range(9):
            di, dj = divmod(k, 3)
            gxp[:, di : di + h, dj : dj + wd] += gcols[k]
        gxs[...] = gxp[:, 1 : h + 1, 1 : wd + 1]
    gw = ad._running_sum(np.einsum("ohw,kchw->ock", gi, windows(xs)) for gi, xs in zip(gs, samples))
    gb = ad._running_sum(gi.sum(axis=(1, 2)) for gi in gs)
    return out.reshape(g.shape), gx.reshape(x.shape), gw.reshape(w.shape), gb


def _four_tap_bilinear(x, factor, g):
    """The four-tap gather and ``np.add.at`` scatter bilinear_upsample:
    output and the vjp of x for ``g``."""

    def grids(n):
        src = np.clip((np.arange(n * factor, dtype=np.float64) + 0.5) / factor - 0.5, 0.0, n - 1)
        i0 = np.floor(src).astype(np.int64)
        return i0, np.minimum(i0 + 1, n - 1), src - i0

    (i0, i1, ti), (j0, j1, tj) = grids(x.shape[-2]), grids(x.shape[-1])
    ti, tj = ti[:, None].astype(x.dtype), tj[None, :].astype(x.dtype)
    taps = (
        ((Ellipsis, i0[:, None], j0[None, :]), 1 - ti, 1 - tj),
        ((Ellipsis, i1[:, None], j0[None, :]), ti, 1 - tj),
        ((Ellipsis, i0[:, None], j1[None, :]), 1 - ti, tj),
        ((Ellipsis, i1[:, None], j1[None, :]), ti, tj),
    )
    data, grad = None, np.zeros(x.shape, dtype=x.dtype)
    for index, wi, wj in taps:
        term = x[index] * wi * wj
        data = term if data is None else data + term
        np.add.at(grad, index, g * wi * wj)
    return data, grad


def _conv_forward_and_vjps(x, w, b, g):
    """``conv2d(x, w, b)`` and its vjps applied to ``g``, through ``backward``."""
    leaves = [ad.parameter(a, dtype=a.dtype) for a in (x, w, b)]
    out = ad.conv2d(*leaves)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=g.dtype))))
    return [out.data] + [t.grad for t in leaves]


# (Cin, Cout): windows of x (Cin < Cout), channels reduced first (Cin > Cout), equal
CONV_BRANCHES = [(1, 4), (4, 1), (1, 8), (8, 1), (3, 3), (2, 5), (5, 2)]


class TestConvAndBilinearContract:
    """The BLAS ``conv2d`` and separable ``bilinear_upsample`` against the
    nodes they replaced, within ``CONTRACT_TOL``; finite-difference checks
    of every conv branch; one sample alone against the same sample in a
    batch of 5, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin, cout", CONV_BRANCHES)
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
    def test_conv2d_against_einsum(self, dtype, cin, cout, lead):
        rng = np.random.default_rng(60 + cin + 10 * cout)
        x = rng.normal(size=lead + (cin, 9, 13)).astype(dtype)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        g = rng.normal(size=lead + (cout, 9, 13)).astype(dtype)
        _assert_within_contract(_conv_forward_and_vjps(x, w, b, g), _einsum_conv2d(x, w, b, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, factor", [((3, 5, 7), 2), ((6, 4), 3), ((2, 2, 32, 32), 2)])
    def test_bilinear_upsample_against_four_taps(self, dtype, shape, factor):
        rng = np.random.default_rng(61)
        x = rng.normal(size=shape).astype(dtype)
        g = rng.normal(size=shape[:-2] + (shape[-2] * factor, shape[-1] * factor)).astype(dtype)
        got = _forward_and_vjp(lambda t: ad.bilinear_upsample(t, factor), x, g)
        _assert_within_contract(got, _four_tap_bilinear(x, factor, g))

    @pytest.mark.parametrize("cin, cout", [(1, 3), (3, 1), (2, 2)], ids=["cin<cout", "cin>cout", "cin=cout"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "batch"])
    def test_conv2d_gradcheck_every_branch(self, cin, cout, lead):
        rng = np.random.default_rng(62)
        x, w, b = t64(rng, *lead, cin, 4, 5), t64(rng, cout, cin, 3, 3), t64(rng, cout)
        m = ad.constant(rng.normal(size=lead + (cout, 4, 5)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.conv2d(ts[0], ts[1], ts[2]), m)), [x, w, b])

    @pytest.mark.parametrize("cin, cout", [(1, 4), (4, 1), (3, 3)], ids=["cin<cout", "cin>cout", "cin=cout"])
    def test_conv2d_sample_alone_equals_sample_in_batch(self, cin, cout):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(5, cin, 12, 10)).astype(np.float32)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        g = _order_sensitive(rng, (5, cout, 12, 10))
        batch = _conv_forward_and_vjps(x, w, b, g)
        alone = [_conv_forward_and_vjps(x[i], w, b, g[i]) for i in range(5)]
        for i, (out, gx, gw, gb) in enumerate(alone):
            assert np.array_equal(out, batch[0][i]) and np.array_equal(gx, batch[1][i])
        # the batch's parameter gradients are the samples' own, added in slot order
        assert np.array_equal(batch[2], ad._running_sum(a[2] for a in alone))
        assert np.array_equal(batch[3], ad._running_sum(a[3] for a in alone))

    def test_bilinear_sample_alone_equals_sample_in_batch(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(5, 12, 10)).astype(np.float32)
        g = rng.normal(size=(5, 24, 20)).astype(np.float32)
        out, gx = _forward_and_vjp(ad.bilinear_upsample, x, g)
        for i in range(5):
            one_out, one_gx = _forward_and_vjp(ad.bilinear_upsample, x[i], g[i])
            assert np.array_equal(one_out, out[i]) and np.array_equal(one_gx, gx[i])


# ---------------------------------------------------------------------------
# row reductions, the GELU gate and conv2d's windows: numpy's reduce,
# scipy's erf and stacked slices as references
# ---------------------------------------------------------------------------

ROW_LENGTHS = [1, 2, 5, 16, 40, 61]


def _squared_error_and_vjps(loss, pred, target, g):
    """``loss(pred, target)`` and its vjps of both inputs for ``g``, through ``backward``."""
    leaves = [ad.parameter(a, dtype=a.dtype) for a in (pred, target)]
    out = loss(*leaves)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=g.dtype))))
    return [out.data] + [t.grad for t in leaves]


class TestSquaredErrorReferences:
    """``weighted_mse``, the engine's one squared-error op, against the
    plain ``mse`` the reconstruction loss used, bit for bit at unit
    weights, and against its old ``sum(w) + 1e-8`` divisor on
    max-normalized maps, whose weights sum to at least 1. That divisor
    moves a float64 value by 1e-8 / sum(w) of itself, so at most 1e-8;
    at float32 the two agree within ``CONTRACT_TOL``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 12, 64), (1, 12, 64), (12, 64), (8, 64, 64)])
    def test_unit_weights_equal_mse_bit_for_bit(self, dtype, shape):
        rng = np.random.default_rng(90)
        pred, target = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        g = rng.normal(size=shape[:-2]).astype(dtype)
        got = _squared_error_and_vjps(lambda p, t: ad.weighted_mse(p, t, np.ones(shape)), pred, target, g)
        want = _squared_error_and_vjps(mse, pred, target, g)
        for name, a, b in zip(("forward", "vjp pred", "vjp target"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weighted_maps_within_contract_of_eps_divisor(self, dtype):
        rng = np.random.default_rng(91)
        pred, target = (rng.normal(size=(6, 16, 16)).astype(dtype) for _ in range(2))
        weights = rng.uniform(0.0, 1.0, size=(6, 16, 16)) ** 4
        weights[:, 4:9, 5:10] = 1.0     # max-normalized: every peak is 1
        weights[3] = 0.0                # both divisors give this slot +0
        g = rng.normal(size=6).astype(dtype)
        got = _squared_error_and_vjps(lambda p, t: ad.weighted_mse(p, t, weights), pred, target, g)
        want = _squared_error_and_vjps(lambda p, t: eps_weighted_mse(p, t, weights), pred, target, g)
        tol = CONTRACT_TOL[np.dtype(dtype)] if dtype == np.float32 else 1e-8
        for name, a, b in zip(("forward", "vjp pred", "vjp target"), got, want):
            assert np.abs(a - b).max() <= tol * np.abs(b).max(), name
        assert got[0][3] == 0.0 and not got[1][3].any() and not got[2][3].any()


def _numpy_layer_normalize(x, gain, bias, g, eps=1e-5):
    """``layer_normalize`` with numpy's ``mean`` and ``sum`` over the rows:
    output and the vjps of x, gain and bias for ``g``."""
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    d = x - mu
    inv = 1.0 / np.sqrt((d * d).mean(axis=-1, keepdims=True) + eps)
    dxhat = g * gain
    dvar = (dxhat * d).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
    dmu = -(dxhat.sum(axis=-1, keepdims=True)) * inv
    gx = dxhat * inv + dvar * (2.0 / n) * d + dmu / n
    rows = g.reshape(-1, n)
    return gain * (d * inv) + bias, gx, ((d * inv).reshape(-1, n) * rows).sum(axis=0), rows.sum(axis=0)


class TestRowKernelsAndGate:
    """The engine's row max and row sum against numpy's reduce, its GELU
    gate against scipy's ``erf`` and its conv windows against stacked
    slices. The max and the windows are bit-equal; the sums round
    differently and are held to ``CONTRACT_TOL``, and the gate to stated
    bounds. Each op that takes them keeps a float64 finite-difference
    check."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", ROW_LENGTHS)
    def test_max_last_equals_np_max(self, n, dtype):
        rng = np.random.default_rng(80 + n)
        a = rng.normal(size=(3, 4, n)).astype(dtype)
        a[0, 1, n // 2] = np.nan
        a[1, 2] = -np.inf
        a[2, 0, -1] = np.inf
        got = ad._max_last(a)
        assert got.shape == (3, 4, 1) and got.dtype == a.dtype
        assert np.array_equal(got, a.max(axis=-1, keepdims=True), equal_nan=True)
        assert np.isnan(got[0, 1, 0]) and not np.may_share_memory(got, a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", ROW_LENGTHS)
    def test_sum_last_within_contract_and_sample_alone_equals_batch(self, n, dtype):
        rng = np.random.default_rng(90 + n)
        a = rng.normal(size=(5, 4, 7, n)).astype(dtype)
        got = ad._sum_last(a)
        want = a.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= CONTRACT_TOL[np.dtype(dtype)] * np.abs(want).max()
        for i in range(5):
            assert np.array_equal(ad._sum_last(a[i]), got[i])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 6), (3, 7, 32), (2, 3, 5, 61)])
    def test_layer_normalize_against_numpy_mean(self, shape, dtype):
        rng = np.random.default_rng(95)
        x = rng.normal(1.0, 2.0, size=shape).astype(dtype)
        gain, bias = (rng.normal(size=shape[-1:]).astype(dtype) for _ in range(2))
        g = rng.normal(size=shape).astype(dtype)
        leaves = [ad.parameter(a, dtype=dtype) for a in (x, gain, bias)]
        out = ad.layer_normalize(*leaves)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g, dtype=dtype))))
        got = [out.data] + [t.grad for t in leaves]
        want = _numpy_layer_normalize(x, gain, bias, g)
        _assert_within_contract(got, want, ("forward", "vjp x", "vjp gain", "vjp bias"))

    def test_gelu_gate_float32_against_scipy(self):
        x = np.concatenate([
            np.linspace(-6.0, 6.0, 240_001, dtype=np.float32),
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32),
        ])
        got, want = ad._gelu_gate(x), scipy_gelu_gate(x)
        assert got.dtype == np.float32
        assert np.array_equal(got[-5:], [0.5, 0.5, 1.0, 0.0, np.nan], equal_nan=True)
        assert np.abs(got[:-1] - want[:-1]).max() <= 1e-6

    def test_gelu_gate_float64_against_scipy(self):
        rng = np.random.default_rng(96)
        x = np.concatenate([rng.normal(scale=3.0, size=16_384), np.linspace(-40.0, 40.0, 8_001)])
        got, want = ad._gelu_gate(x), scipy_gelu_gate(x)
        # 2 ulp at the gate's scale of 1/2 (1 + erf rounds at that scale)
        assert got.dtype == np.float64 and np.abs(got - want).max() <= 2 * np.spacing(0.5)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        assert np.array_equal(ad._gelu_gate(special), [0.5, 0.5, 1.0, 0.0, np.nan], equal_nan=True)

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 1, 1, 1), (3, 2, 1, 4), (2, 4, 6, 1), (8, 1, 16, 16)])
    def test_taps_equal_stacked_slices(self, shape, flip):
        a = _order_sensitive(np.random.default_rng(97), shape)
        assert np.array_equal(ad._taps(a, flip), stacked_taps(a, flip))

    def test_gelu_gradcheck_over_the_gate_range(self):
        rng = np.random.default_rng(98)
        # below about -4.5 the gradient is near 1e-8 and the central
        # difference's round-off, not the gate, sets the relative error
        x = t64(rng, 2, 3, 8, lo=-4.5, hi=6.0)
        w = ad.constant(rng.normal(size=(2, 3, 8)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.gelu(ts[0]), w)), [x])

    @pytest.mark.parametrize("n", [1, 5, 16])
    def test_layer_normalize_gradcheck_batched(self, n):
        rng = np.random.default_rng(99)
        x, g, b = t64(rng, 2, 3, n, lo=-3.0, hi=3.0), t64(rng, n, lo=0.5, hi=1.5), t64(rng, n)
        w = ad.constant(rng.normal(size=(2, 3, n)), dtype=np.float64)
        check(lambda ts: ad.sum_all(ad.mul(ad.layer_normalize(ts[0], ts[1], ts[2]), w)), [x, g, b])

    @pytest.mark.parametrize("lk", [1, 7])
    def test_attention_gradcheck_odd_rows(self, lk):
        # one key (a single-column max) and seven (folded odd columns)
        rng = np.random.default_rng(100)
        query, kv = t64(rng, 2, 3, 4), t64(rng, 2, lk, 4)
        weights = [t64(rng, 4, 4) if i % 2 == 0 else t64(rng, 4) for i in range(8)]
        target = ad.constant(rng.normal(size=(2, 3, 4)), dtype=np.float64)

        def f(_):
            return ad.sum_all(ad.mul(ad.attention(query, kv, *weights, heads=2), target))

        # bk's true gradient is 0; see TestGradients.test_attention
        check(f, [query, kv] + [w for i, w in enumerate(weights) if i != 3])


# ---------------------------------------------------------------------------
# attention and conv2d backward from saved or shared arrays, against the
# recomputing and unshared forms they replaced, bit for bit
# ---------------------------------------------------------------------------


def _numpy_max_last(a):
    return a.max(axis=-1, keepdims=True)


def _numpy_sum_last(a):
    return a.sum(axis=-1, keepdims=True)


# the row reductions attention takes: the engine's, and numpy's reduce
# that they replaced
REDUCTIONS = {"engine": (ad._max_last, ad._sum_last), "numpy": (_numpy_max_last, _numpy_sum_last)}


def _recompute_attention(query, kv, wq, bq, wk, bk, wv, bv, wo, bo, heads, reductions="engine"):
    """The attention node whose vjp recomputed the projections, the
    probabilities (from the saved row max and row sum) and the context,
    with the given row reductions."""
    max_last, sum_last = REDUCTIONS[reductions]
    weights = {"wq": wq, "bq": bq, "wk": wk, "bk": bk, "wv": wv, "bv": bv, "wo": wo, "bo": bo}
    d = query.shape[-1]
    lead, lq, hd = query.shape[:-2], query.shape[-2], d // heads
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=query.data.dtype)

    def project(x, w, b):
        y = x @ w.data + b.data
        return y.reshape(x.shape[:-1] + (heads, hd)).swapaxes(-3, -2)

    def join(h):
        return h.swapaxes(-3, -2).reshape(h.shape[:-3] + (h.shape[-2], d))

    qh, kh, vh = project(query.data, wq, bq), project(kv.data, wk, bk), project(kv.data, wv, bv)
    probs = qh @ kh.swapaxes(-1, -2)
    probs *= scale
    row_max = max_last(probs)
    probs -= row_max
    np.exp(probs, out=probs)
    row_sum = sum_last(probs)
    probs /= row_sum
    data = join(probs @ vh) @ wo.data + bo.data

    def grads(g):
        qh, kh, vh = project(query.data, wq, bq), project(kv.data, wk, bk), project(kv.data, wv, bv)
        probs = np.exp((qh @ kh.swapaxes(-1, -2)) * scale - row_max) / row_sum
        ctx = join(probs @ vh)
        gctx = (g @ wo.data.T).reshape(lead + (lq, heads, hd)).swapaxes(-3, -2)
        gp = gctx @ vh.swapaxes(-1, -2)
        gs = probs * (gp - sum_last(gp * probs)) * scale
        out = {"wo": ad._weight_grad(ctx, g), "bo": ad._row_sum(g)}
        dx = {}
        for tag, x, gh in (
            ("q", query, gs @ kh),
            ("k", kv, gs.swapaxes(-1, -2) @ qh),
            ("v", kv, probs.swapaxes(-1, -2) @ gctx),
        ):
            gh = join(gh)
            dx[tag] = gh @ weights[f"w{tag}"].data.T
            out[f"w{tag}"] = ad._weight_grad(x.data, gh)
            out[f"b{tag}"] = ad._row_sum(gh)
        inputs = (dx["q"] + dx["k"] + dx["v"],) if kv is query else (dx["q"], dx["k"] + dx["v"])
        return inputs + tuple(out[name] for name in weights)

    parents = ((query,) if kv is query else (query, kv)) + tuple(weights.values())
    vjps = tuple((lambda g, i=i: grads(g)[i]) for i in range(len(parents)))
    return ad._make(data, parents, vjps, "attention")


def _unshared_conv_vjps(x, w, g):
    """The vjps of ``conv2d`` for x and w, each building its own windows."""
    cin, h, wd = x.shape[-3:]
    cout = w.shape[0]
    xs, x_rows = x.reshape(-1, cin, h, wd), x.reshape(-1, cin, h * wd)
    w9 = w.reshape(cout, cin, 9)
    w_in, w_out = w9.transpose(0, 2, 1).reshape(cout, 9 * cin), w9.transpose(2, 0, 1).reshape(9 * cout, cin)
    if cout <= cin:
        gx = (w_out.T @ ad._taps(g.reshape(-1, cout, h, wd), True)).reshape(x.shape)
    else:
        gx = ad._shift_add(w_in.T @ g.reshape(-1, cout, h * wd), h, wd, True).reshape(x.shape)
    if cin <= cout:
        gw = ad._running_sum(g.reshape(-1, cout, h * wd) @ ad._taps(xs, False).swapaxes(-1, -2))
        gw = gw.reshape(cout, 9, cin).transpose(0, 2, 1).reshape(w.shape)
    else:
        gw = ad._running_sum(ad._taps(g.reshape(-1, cout, h, wd), True) @ x_rows.swapaxes(-1, -2))
        gw = gw.reshape(9, cout, cin).transpose(1, 2, 0).reshape(w.shape)
    return gx, gw


ATTENTION_WEIGHTS = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]


class TestSavedForwardBitExact:
    """``attention``'s vjp reads the probabilities and context its forward
    built instead of recomputing them, and ``conv2d`` builds the flipped
    windows of ``g`` once for both vjps; outputs and every gradient equal
    the replaced forms bit for bit, and the saved arrays do not outlive
    the backward. With numpy's row reductions, which round differently
    from the engine's, the recomputing node is held to ``CONTRACT_TOL``."""

    @staticmethod
    def _attention_run(op, lead, lq, lk, heads, self_attention, dtype):
        rng = np.random.default_rng(70 + heads + lq)
        d = 8
        query = ad.parameter(rng.normal(size=lead + (lq, d)), dtype=dtype)
        kv = query if self_attention else ad.parameter(rng.normal(size=lead + (lk, d)), dtype=dtype)
        weights = [
            ad.parameter(rng.normal(0, 0.5, size=(d, d) if i % 2 == 0 else d), dtype=dtype) for i in range(8)
        ]
        g = ad.constant(rng.normal(size=lead + (lq, d)), dtype=dtype)
        out = op(query, kv, *weights, heads=heads)
        ad.backward(ad.sum_all(ad.mul(out, g)))
        leaves = [query] + ([] if self_attention else [kv]) + weights
        return [out.data] + [t.grad for t in leaves]

    @pytest.mark.parametrize("reductions", list(REDUCTIONS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
    @pytest.mark.parametrize("lq, lk, self_attention", [(5, 5, True), (4, 7, False)], ids=["self", "cross"])
    def test_attention_equals_recomputing_node(self, lq, lk, self_attention, lead, heads, dtype, reductions):
        got = self._attention_run(ad.attention, lead, lq, lk, heads, self_attention, dtype)
        reference = functools.partial(_recompute_attention, reductions=reductions)
        want = self._attention_run(reference, lead, lq, lk, heads, self_attention, dtype)
        if reductions == "numpy":
            names = ["forward", "query"] + ([] if self_attention else ["kv"]) + ATTENTION_WEIGHTS
            # bk's true gradient is 0 (the softmax cancels a shift shared by
            # all keys), so both sides return round-off around it; it is held
            # to the contract at the scale of wk's gradient
            bk, wk = names.index("bk"), names.index("wk")
            err = np.abs(got[bk] - want[bk]).max() / np.abs(want[wk]).max()
            assert err <= CONTRACT_TOL[np.dtype(dtype)], f"bk: {err:.2e} of wk's scale"
            del got[bk], want[bk], names[bk]
            _assert_within_contract(got, want, names)
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_attention_saved_arrays_released(self, monkeypatch):
        # the probabilities are the buffer the forward exponentiates in place
        probs = []
        exp = np.exp

        def spy(x, *args, **kw):
            if kw.get("out") is not None:
                probs.append(weakref.ref(kw["out"]))
            return exp(x, *args, **kw)

        monkeypatch.setattr(ad.np, "exp", spy)
        rng = np.random.default_rng(75)
        x = ad.parameter(rng.normal(size=(2, 3, 4)))
        weights = [ad.parameter(rng.normal(size=(4, 4) if i % 2 == 0 else 4)) for i in range(8)]
        out = ad.attention(x, x, *weights, heads=2)
        assert len(probs) == 1 and probs[0]() is not None
        ad.backward(ad.sum_all(out))
        assert probs[0]() is None
        with ad.no_grad():
            kept = ad.attention(x, x, *weights, heads=2)
        assert len(probs) == 2 and probs[1]() is None and not kept._vjps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin, cout", CONV_BRANCHES)
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
    def test_conv2d_vjps_equal_unshared(self, cin, cout, lead, dtype):
        rng = np.random.default_rng(76 + cin + 10 * cout)
        x = rng.normal(size=lead + (cin, 7, 6)).astype(dtype)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        g = _order_sensitive(rng, lead + (cout, 7, 6)).astype(dtype)
        _, gx, gw, _ = _conv_forward_and_vjps(x, w, b, g)
        want_x, want_w = _unshared_conv_vjps(x, w, g)
        assert np.array_equal(gx, want_x) and np.array_equal(gw, want_w)
        # only the weight vjp runs when x is a constant
        wl = ad.parameter(w, dtype=dtype)
        zero_b = ad.constant(np.zeros(cout), dtype=dtype)
        ad.backward(ad.sum_all(ad.mul(ad.conv2d(ad.constant(x, dtype=dtype), wl, zero_b), ad.constant(g, dtype=dtype))))
        assert np.array_equal(wl.grad, want_w)

    def test_conv2d_windows_follow_the_incoming_gradient(self):
        # vjps called directly with different g: no stale windows
        rng = np.random.default_rng(77)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        w = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        out = ad.conv2d(ad.parameter(x), ad.parameter(w), ad.parameter(np.zeros(2)))
        vjp_x, vjp_w, _ = out._vjps
        g1, g2 = (rng.normal(size=(2, 2, 5, 5)).astype(np.float32) for _ in range(2))
        assert np.array_equal(vjp_x(g1), _unshared_conv_vjps(x, w, g1)[0])
        assert np.array_equal(vjp_w(g2), _unshared_conv_vjps(x, w, g2)[1])
        assert np.array_equal(vjp_x(g2), _unshared_conv_vjps(x, w, g2)[0])


def test_every_engine_op_has_a_program_caller_and_a_c03_trial():
    """The engine carries only operators that something calls, each gradchecked.

    A public ``autodiff`` function that builds a node must be called as
    ``ad.<name>`` from another module of the package and have a trial in
    c03's ``_ALL_OPS``; an op only the tests use belongs in
    ``tests/reference_ops.py``.
    """
    from test_acceptance import _ALL_OPS

    ops = {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__
        and not name.startswith("_") and "_make" in fn.__code__.co_names
    }
    assert {"linear", "attention", "conv2d"} <= ops
    called = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name != "autodiff.py":
            called |= {
                node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ad"
            }
    assert sorted(ops - called) == [], "ops no program module calls"
    assert sorted(ops - set(_ALL_OPS)) == [], "ops without a c03 trial"
