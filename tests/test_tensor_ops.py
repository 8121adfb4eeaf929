"""Layer forward semantics against hand values and brute-force oracles."""
import itertools
import os
import select
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedrive import layers
from conedrive.errors import GraphError, ShapeError
from conedrive.graph import Model, ModelSpec, NodeSpec, spec
from conedrive.layers import (BatchNorm2d, ClampScale, Conv2d, Flatten, Linear,
                              MaxPool2d, ReLU, ScaledSigmoid, col2im, im2col,
                              softmax_cross_entropy)
from conedrive.tensor import Param
from reference_twins import (conv_backward_reference, conv_forward_reference,
                             conv_weight_grad_reference, maxpool_backward_reference,
                             maxpool_forward_reference)


def conv2d_bruteforce(x, weight, bias, stride):
    """Direct-loop convolution oracle, independent of the im2col path."""
    n, c, h, w = x.shape
    od, _, k, _ = weight.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((n, od, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(od):
            for i in range(ho):
                for j in range(wo):
                    patch = x[b, :, i * stride : i * stride + k,
                              j * stride : j * stride + k]
                    out[b, o, i, j] = (patch * weight[o]).sum() + bias[o]
    return out


def maxpool_bruteforce(x, window, stride):
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            out[:, :, i, j] = x[:, :, i * stride : i * stride + window,
                                j * stride : j * stride + window].max(axis=(2, 3))
    return out


@st.composite
def pool_cases(draw):
    """(x, window, stride, rng): integer-valued input (so windows tie), with
    a drawn share of entries replaced by NaN or +-inf; every window/stride
    pair in 1..3, so windows overlap (stride < window) or leave gaps."""
    k = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
             draw(st.integers(k, 13)), draw(st.integers(k, 13)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-3, 4, size=shape).astype(dtype)
    spots = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    x[spots] = rng.choice([np.nan, np.inf, -np.inf], size=int(spots.sum()))
    return x, k, s, rng


@st.composite
def conv_cases(draw):
    """(conv, x, grad_out): batch 1-4, in/out channels 1-3, kernel 1-5,
    stride 1-3, H/W from the kernel to 13, float32 or float64."""
    k = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    n, c, od = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                draw(st.integers(1, 3)))
    h, w = draw(st.integers(k, 13)), draw(st.integers(k, 13))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conv = Conv2d(c, od, k, s, rng, dtype)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    out_shape = (n, od, (h - k) // s + 1, (w - k) // s + 1)
    return conv, x, rng.standard_normal(out_shape).astype(dtype)


@st.composite
def chunked_conv_cases(draw):
    """(conv, x, grad_out, frames per chunk): batch 1-9 lowered in chunks of
    1 to batch frames, so the chunks divide the batch or leave a shorter
    tail; kernel 1-5, stride 1-3, layer and input each float32 or float64,
    and in about half the cases a single output position (P = 1)."""
    k = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    n, c, od = (draw(st.integers(1, 9)), draw(st.integers(1, 3)),
                draw(st.integers(1, 3)))
    if draw(st.booleans()):
        h, w = k + draw(st.integers(0, s - 1)), k + draw(st.integers(0, s - 1))
    else:
        h, w = draw(st.integers(k, 13)), draw(st.integers(k, 13))
    dtype, x_dtype = (draw(st.sampled_from([np.float32, np.float64]))
                      for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conv = Conv2d(c, od, k, s, rng, dtype)
    x = rng.standard_normal((n, c, h, w)).astype(x_dtype)
    out_shape = (n, od, (h - k) // s + 1, (w - k) // s + 1)
    return (conv, x, rng.standard_normal(out_shape).astype(np.result_type(dtype, x_dtype)),
            draw(st.integers(1, n)))


def chunk_budget(conv, x, grad_out, frames):
    """A ``CONV_CHUNK_BYTES`` that lowers ``x`` in chunks of ``frames``."""
    frame_bytes = (x.shape[1] * conv.kernel ** 2 * grad_out.shape[2] * grad_out.shape[3]
                   * x.itemsize)
    return frames * frame_bytes + frame_bytes - 1


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def probe_spec(layer, image_shape):
    """One node, "probe", on an image input of the given batchless shape."""
    return ModelSpec((("image", image_shape),),
                     (NodeSpec("probe", layer, ("image",)),), "probe")


def make_conv(in_depth, out_depth, kernel, stride, seed=0, dtype=np.float64):
    return Conv2d(in_depth, out_depth, kernel, stride,
                  np.random.default_rng(seed), dtype)


class TestConv2d:
    def test_output_shape_256(self):
        conv = make_conv(3, 8, 5, 2)
        x = np.random.default_rng(0).standard_normal((1, 3, 256, 256))
        assert conv.forward(x, train=False).shape == (1, 8, 126, 126)

    def test_all_ones_sums_kernel(self):
        conv = make_conv(1, 1, 3, 1)
        conv.weight.value = np.ones((1, 1, 3, 3))
        conv.bias.value = np.zeros(1)
        out = conv.forward(np.ones((1, 1, 3, 3)), train=False)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(9.0)

    def test_zero_input_passes_bias(self):
        conv = make_conv(1, 1, 3, 1, seed=3)
        conv.bias.value = np.array([2.5])
        out = conv.forward(np.zeros((1, 1, 3, 3)), train=False)
        assert out[0, 0, 0, 0] == pytest.approx(2.5)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(GraphError, match="'probe': kernel 5x5 larger than input 4x4"):
            Model(probe_spec(spec("conv", out_depth=1, kernel=5, stride=1), (1, 4, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        conv = make_conv(2, 4, 3, 2, seed=seed)
        x = rng.standard_normal((2, 2, 9, 9))
        got = conv.forward(x, train=False)
        want = conv2d_bruteforce(x, conv.weight.value, conv.bias.value, 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shift", [(0, 0), (1, 2), (2, 0)])
    def test_one_hot_kernel_shifts_input(self, shift):
        di, dj = shift
        conv = make_conv(1, 1, 3, 1)
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, di, dj] = 1.0
        conv.weight.value = kernel
        conv.bias.value = np.zeros(1)
        x = np.random.default_rng(7).standard_normal((1, 1, 6, 6))
        out = conv.forward(x, train=False)
        np.testing.assert_allclose(out[0, 0], x[0, 0, di : di + 4, dj : dj + 4])

    @given(conv_cases())
    @settings(max_examples=300, deadline=None)
    def test_weight_grad_matches_reference_twin(self, case):
        conv, x, grad = case
        n, od, ho, wo = grad.shape
        conv.forward(x, train=True)
        conv.backward(grad)
        got = conv.weight.grad.reshape(od, -1)
        g = grad.reshape(n, od, ho * wo)
        cols = im2col(x, conv.kernel, conv.stride)
        want = conv_weight_grad_reference(g, cols)
        assert got.dtype == want.dtype == x.dtype
        # the summation orders differ: allow a rounding per reduced term,
        # relative to the sum of the terms' magnitudes
        scale = conv_weight_grad_reference(np.abs(g), np.abs(cols)).max()
        tol = 1e-12 if x.dtype == np.float64 else n * ho * wo * np.finfo(x.dtype).eps
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * scale)
        np.testing.assert_array_equal(conv.bias.grad, grad.sum(axis=(0, 2, 3)))

    @given(chunked_conv_cases())
    @settings(max_examples=300, deadline=None)
    def test_chunked_matches_whole_batch_twins(self, case):
        conv, x, grad, step = case
        n = len(x)
        lowered = []

        def counted(*args, **kwargs):
            lowered.append(len(args[0]))
            return im2col(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "CONV_CHUNK_BYTES", chunk_budget(conv, x, grad, step))
            mp.setattr(layers, "CONV_WORKERS", 2)
            mp.setattr(layers, "im2col", counted)
            evaluated = conv.forward(x, train=False)
            out = conv.forward(x, train=True)
            dx = conv.backward(grad)
        chunks = [min(step, n - a) for a in range(0, n, step)]
        # eval forward, training forward, and backward each lower every chunk
        # once; the pool's threads lower a pass's chunks in any order
        passes = [lowered[a:a + len(chunks)] for a in range(0, len(lowered), len(chunks))]
        assert [sorted(p) for p in passes] == [sorted(chunks)] * 3
        want = conv_forward_reference(x, conv.weight.value, conv.bias.value, conv.stride)
        assert_same(evaluated, want)
        assert_same(out, want)
        want_dx, want_dw, want_db = conv_backward_reference(x, conv.weight.value,
                                                            grad, conv.stride)
        assert_same(dx, want_dx)
        # parameter gradients are stored in the parameter's dtype
        assert_same(conv.weight.grad, want_dw.astype(conv.weight.value.dtype))
        assert_same(conv.bias.grad, want_db.astype(conv.bias.value.dtype))

    @given(chunked_conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_worker_count_leaves_every_bit(self, case):
        conv, x, grad, step = case
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "CONV_CHUNK_BYTES", chunk_budget(conv, x, grad, step))
            for workers in (1, 2, 3):
                mp.setattr(layers, "CONV_WORKERS", workers)
                conv.weight.grad = conv.bias.grad = None
                evaluated = conv.forward(x, train=False)
                out = conv.forward(x, train=True)
                dx = conv.backward(grad)
                runs.append([a.tobytes() for a in (evaluated, out, dx, conv.weight.grad,
                                                   conv.bias.grad)])
        assert runs[0] == runs[1] == runs[2]

    def test_error_in_one_chunk_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(layers, "CONV_CHUNK_BYTES", 1)    # a chunk per frame
        monkeypatch.setattr(layers, "CONV_WORKERS", 2)
        conv = make_conv(2, 3, 3, 1)
        x = np.random.default_rng(0).standard_normal((5, 2, 6, 6))
        grad = np.random.default_rng(1).standard_normal((5, 3, 4, 4))
        calls = itertools.count()

        def failing(*args):
            if next(calls) == 2:
                raise RuntimeError("chunk lost")
            return col2im(*args)

        conv.forward(x, train=True)
        with monkeypatch.context() as mp:
            mp.setattr(layers, "col2im", failing)
            with pytest.raises(RuntimeError, match="chunk lost"):
                conv.backward(grad)
        # the pool still serves the next call
        want_dx, _, _ = conv_backward_reference(x, conv.weight.value, grad, 1)
        assert_same(conv.backward(grad), want_dx)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_pool_workers_run_on_separate_cpus(self, monkeypatch):
        monkeypatch.setattr(layers, "CONV_WORKERS", 2)
        cpus = sorted(os.sched_getaffinity(0))
        both = threading.Barrier(2, timeout=60)

        def where():
            both.wait()                     # so each worker takes one call
            return os.sched_getaffinity(0)

        pool = layers._conv_pool()
        found = [future.result() for future in [pool.submit(where) for _ in range(2)]]
        assert sorted(found, key=min) == [{cpus[0]}, {cpus[1]}]
        assert sorted(os.sched_getaffinity(0)) == cpus    # the caller stays unbound

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_lowers_after_the_pool_started(self, monkeypatch):
        monkeypatch.setattr(layers, "CONV_CHUNK_BYTES", 1)
        monkeypatch.setattr(layers, "CONV_WORKERS", 2)
        conv = make_conv(2, 3, 3, 1)
        x = np.random.default_rng(0).standard_normal((4, 2, 6, 6))
        want = conv.forward(x, train=False).tobytes()       # the pool is running
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_end, conv.forward(x, train=False).tobytes())
            finally:
                os._exit(0)
        os.close(write_end)
        ready, _, _ = select.select([read_end], [], [], 60)
        got = os.read(read_end, 2 * len(want)) if ready else None
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read_end)
        assert got == want, "the forked child's forward did not finish in 60 s"

    def test_backward_requires_train_forward(self):
        conv = make_conv(1, 1, 3, 1)
        conv.forward(np.zeros((1, 1, 4, 4)), train=False)
        with pytest.raises(GraphError, match="training-mode forward"):
            conv.backward(np.zeros((1, 1, 2, 2)))


class TestMaxPool:
    def test_single_window_max(self):
        pool = MaxPool2d(2, 2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert pool.forward(x, train=False)[0, 0, 0, 0] == 4.0

    def test_shape_126_to_63(self):
        pool = MaxPool2d(2, 2)
        out = pool.forward(np.zeros((1, 1, 126, 126)), train=False)
        assert out.shape == (1, 1, 63, 63)

    def test_odd_extent_floors(self):
        pool = MaxPool2d(2, 2)
        out = pool.forward(np.zeros((1, 1, 63, 63)), train=False)
        assert out.shape == (1, 1, 31, 31)

    def test_window_too_large_rejected(self):
        with pytest.raises(GraphError, match="'probe': window 2x2 larger than input 1x1"):
            Model(probe_spec(spec("maxpool", window=2, stride=2), (1, 1, 1)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce(self, seed):
        x = np.random.default_rng(seed).standard_normal((2, 3, 8, 8))
        pool = MaxPool2d(2, 2)
        np.testing.assert_array_equal(pool.forward(x, train=False),
                                      maxpool_bruteforce(x, 2, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_preserves_gradient_sum(self, seed):
        x = np.random.default_rng(seed).standard_normal((2, 3, 8, 8))
        pool = MaxPool2d(2, 2)
        out = pool.forward(x, train=True)
        g = np.random.default_rng(seed + 100).standard_normal(out.shape)
        dx = pool.backward(g)
        assert dx.sum() == pytest.approx(g.sum(), rel=1e-12)

    def test_tie_routes_to_first_row_major(self):
        pool = MaxPool2d(2, 2)
        x = np.full((1, 1, 2, 2), 5.0)
        pool.forward(x, train=True)
        dx = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    @given(pool_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_twins(self, case):
        x, k, s, rng = case
        want, arg = maxpool_forward_reference(x, k, s)
        pool = MaxPool2d(k, s)
        assert_same(pool.forward(x, train=False), want)
        out = pool.forward(x, train=True)
        assert_same(out, want)
        win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        np.testing.assert_array_equal(
            np.isnan(out), np.isnan(win[:, :, ::s, ::s]).any(axis=(4, 5)))
        grad = rng.standard_normal(want.shape).astype(x.dtype)
        assert_same(pool.backward(grad),
                    maxpool_backward_reference(x.shape, arg, grad, k, s))


class TestBatchNorm:
    def make(self, channels=1):
        return BatchNorm2d(channels, dtype=np.float64)

    def test_two_values_normalize(self):
        bn = self.make()
        x = np.array([1.0, 3.0]).reshape(1, 1, 1, 2)
        out = bn.forward(x, train=True)
        # mean 2, population var 1 -> +-1/sqrt(1 + 1e-5)
        want = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.ravel(), [-want, want], rtol=1e-12)

    def test_constant_channel_maps_to_zero(self):
        bn = self.make()
        out = bn.forward(np.full((2, 1, 3, 3), 7.0), train=True)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_affine_dominates(self):
        bn = self.make()
        bn.gamma.value = np.zeros(1)
        bn.beta.value = np.full(1, 7.0)
        out = bn.forward(np.random.default_rng(0).standard_normal((2, 1, 4, 4)),
                         train=True)
        np.testing.assert_allclose(out, 7.0)

    def test_train_output_standardized(self):
        bn = self.make(channels=3)
        x = np.random.default_rng(1).normal(5.0, 3.0, (4, 3, 8, 8))
        out = bn.forward(x, train=True)
        mu = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mu).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3

    def test_degenerate_batch_clamps_variance(self):
        bn = self.make()
        out = bn.forward(np.array([[[[3.0]]]]), train=True)
        assert np.isfinite(out).all()
        assert out[0, 0, 0, 0] == pytest.approx(0.0)

    def test_eval_uses_running_stats(self):
        bn = self.make()
        rng = np.random.default_rng(2)
        for _ in range(200):
            bn.forward(rng.normal(4.0, 2.0, (8, 1, 4, 4)), train=True)
        out = bn.forward(np.full((1, 1, 1, 1), 4.0), train=False)
        # running mean ~4, running var ~4 -> (4-4)/2 ~ 0
        assert abs(out[0, 0, 0, 0]) < 0.2


class TestLinear:
    def make(self, i, o, seed=0):
        return Linear(i, o, np.random.default_rng(seed), np.float64)

    def test_hand_arithmetic(self):
        lin = self.make(2, 2)
        lin.weight.value = np.array([[1.0, 1.0], [1.0, -1.0]])
        lin.bias.value = np.zeros(2)
        out = lin.forward(np.array([[1.0, 2.0]]), train=False)
        np.testing.assert_allclose(out, [[3.0, -1.0]])

    def test_zero_input_gives_bias(self):
        lin = self.make(3, 2, seed=5)
        out = lin.forward(np.zeros((1, 3)), train=False)
        np.testing.assert_allclose(out[0], lin.bias.value)

    def test_scalar_case(self):
        lin = self.make(1, 1)
        lin.weight.value = np.array([[2.0]])
        lin.bias.value = np.array([0.5])
        out = lin.forward(np.array([[1.0]]), train=False)
        assert out[0, 0] == pytest.approx(2.5)


class TestPointwise:
    def test_relu_values(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]), train=False)
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_all_negative(self):
        x = -np.abs(np.random.default_rng(0).standard_normal((3, 4))) - 0.1
        np.testing.assert_array_equal(ReLU().forward(x, train=False), 0.0)

    def test_relu_identity_on_positives(self):
        x = np.abs(np.random.default_rng(1).standard_normal((3, 4))) + 0.1
        np.testing.assert_array_equal(ReLU().forward(x, train=False), x)

    def test_relu_gradient_zero_at_zero(self):
        relu = ReLU()
        relu.forward(np.array([0.0, 1.0]), train=True)
        np.testing.assert_array_equal(relu.backward(np.ones(2)), [0.0, 1.0])

    def test_clamp_anchors(self):
        clamp = ClampScale(-90.0, 90.0)
        out = clamp.forward(np.array([0.0, 250.0, -123.4]), train=False)
        np.testing.assert_array_equal(out, [0.0, 90.0, -90.0])

    def test_clamp_gradient_open_interval(self):
        clamp = ClampScale(-90.0, 90.0)
        clamp.forward(np.array([-90.0, -89.9, 0.0, 89.9, 90.0, 120.0]), train=True)
        g = clamp.backward(np.ones(6))
        np.testing.assert_array_equal(g, [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_scaled_sigmoid_midpoint(self):
        out = ScaledSigmoid(256.0).forward(np.array([0.0]), train=False)
        assert out[0] == pytest.approx(128.0)

    def test_scaled_sigmoid_tail(self):
        out = ScaledSigmoid(256.0).forward(np.array([-20.0]), train=False)
        assert out[0] == pytest.approx(256.0 / (1.0 + np.exp(20.0)), rel=1e-9)
        assert out[0] == pytest.approx(5.28e-7, rel=1e-2)

    def test_scaled_sigmoid_never_exceeds_scale(self):
        out = ScaledSigmoid(256.0).forward(np.array([1e4, -1e4]), train=False)
        assert out[0] <= 256.0 and out[1] >= 0.0

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 5))
        out = flat.forward(x, train=True)
        assert out.shape == (2, 60)
        np.testing.assert_array_equal(flat.backward(out), x)


class TestSoftmaxAndChecks:
    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_rows_sum_to_one(self, seed):
        # the loss gradient is (softmax - onehot) / batch
        logits = np.random.default_rng(seed).normal(0, 5, (8, 3))
        _, grad = softmax_cross_entropy(logits, np.full(8, 2))
        rows = (grad * 8).sum(axis=1) + 1.0
        np.testing.assert_allclose(rows, 1.0, atol=1e-6)

    def test_param_gradient_shape_enforced(self):
        p = Param("weight", np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="weight"):
            p.add_grad(np.zeros((3, 2)))
