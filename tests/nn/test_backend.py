"""Tests for the pluggable compute-backend layer.

Covers the registry/selection machinery, the per-op equivalence matrix
against the NumPy reference (atol <= 1e-5) over *every* registered
backend, per-backend numeric gradchecks for the five op families the
predictor path depends on, the FusedBackend workspace pool, the
vectorized adaptive pooling, and ``Module.clear_caches``.  The native compiled backend rides the same
matrices and is auto-skipped where its extension cannot build.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.backend import (
    ConvCtx,
    FusedBackend,
    NativeBackend,
    NativeUnavailableError,
    NumpyBackend,
    backend_scope,
    current_backend,
    get_backend,
    list_backends,
    native_available,
    register_backend,
    resolve_backend,
    use_backend,
)

from tests.helpers import linear_probe_loss, max_relative_error, numerical_gradient

RNG = np.random.default_rng(7)

BACKENDS = ["numpy", "fused"]
ATOL = 1e-5


def backend_params(exclude=()):
    """Every registered backend as pytest params, native auto-skipped
    when its extension cannot build on this host."""
    params = []
    for name in list_backends():
        if name in exclude:
            continue
        marks = []
        if name == "native" and not native_available():
            marks.append(
                pytest.mark.skip(reason="native extension unavailable")
            )
        params.append(pytest.param(name, marks=marks, id=name))
    return params


def _x(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


# ----------------------------------------------------------------------
# Registry and selection.
# ----------------------------------------------------------------------
class TestSelection:
    def test_builtin_backends_registered(self):
        assert {"numpy", "fused", "native"} <= set(list_backends())

    def test_list_backends_sorted_and_deterministic(self):
        names = list_backends()
        assert names == sorted(names)
        assert names == list_backends()

    def test_get_backend_is_singleton(self):
        assert get_backend("fused") is get_backend("fused")

    def test_unknown_backend_raises_listing_registered(self):
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "registered" in message
        for name in list_backends():
            assert name in message

    def test_native_resolves_or_raises_unavailable(self):
        if native_available():
            assert isinstance(get_backend("native"), NativeBackend)
        else:
            with pytest.raises(NativeUnavailableError):
                get_backend("native")

    def test_resolve_passthrough(self):
        backend = FusedBackend()
        assert resolve_backend(backend) is backend
        assert resolve_backend(None) is None
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_use_backend_global_and_context(self):
        assert current_backend().name == "numpy"
        handle = use_backend("fused")
        assert current_backend().name == "fused"
        use_backend("numpy")
        assert current_backend().name == "numpy"
        with use_backend("fused"):
            assert current_backend().name == "fused"
        assert current_backend().name == "numpy"
        del handle

    def test_backend_scope_nests_and_restores(self):
        with backend_scope("fused"):
            assert current_backend().name == "fused"
            with backend_scope("numpy"):
                assert current_backend().name == "numpy"
            with backend_scope(None):  # no-op scope inherits
                assert current_backend().name == "fused"
        assert current_backend().name == "numpy"

    def test_register_third_backend(self):
        class TracingBackend(NumpyBackend):
            name = "tracing-test"

        register_backend("tracing-test", TracingBackend)
        try:
            assert isinstance(get_backend("tracing-test"), TracingBackend)
        finally:
            from repro.nn.backend import base

            base._FACTORIES.pop("tracing-test", None)
            base._INSTANCES.pop("tracing-test", None)


# ----------------------------------------------------------------------
# Per-op equivalence matrix: every registered backend vs the reference.
# ----------------------------------------------------------------------
def _layer_cases():
    """(name, layer factory, input shape) for the equivalence matrix."""
    return [
        ("conv3x3", lambda: nn.Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(1)), (4, 3, 9, 9)),
        ("conv1x1", lambda: nn.Conv2d(5, 7, 1, rng=np.random.default_rng(2)), (4, 5, 6, 6)),
        ("conv_strided", lambda: nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=np.random.default_rng(3)), (2, 3, 11, 11)),
        ("linear", lambda: nn.Linear(6, 4, rng=np.random.default_rng(4)), (8, 6)),
        ("linear_seq", lambda: nn.Linear(5, 3, rng=np.random.default_rng(5)), (2, 7, 5)),
        ("maxpool_padded", lambda: nn.MaxPool2d(3, stride=2, padding=1), (3, 4, 9, 9)),
        ("avgpool", lambda: nn.AvgPool2d(2), (3, 4, 8, 8)),
        ("adaptive_pool", lambda: nn.AdaptiveAvgPool2d(3), (2, 4, 7, 7)),
        ("batchnorm2d", lambda: nn.BatchNorm2d(5), (6, 5, 4, 4)),
        ("batchnorm1d", lambda: nn.BatchNorm1d(7), (12, 7)),
        ("layernorm", lambda: nn.LayerNorm(9), (3, 6, 9)),
        ("attention", lambda: nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(6)), (2, 5, 8)),
    ]


def _run_layer(backend, factory, x):
    """(output, input grad, param grads) for one layer on ``backend``."""
    nn.init.reset_layer_rng(99)
    layer = factory()
    with use_backend(backend):
        out = layer(x.copy())
        probe_rng = np.random.default_rng(12)
        probe = probe_rng.standard_normal(out.shape).astype(np.float32)
        layer.zero_grad()
        grad_in = layer.backward(probe.copy())
    grads = {name_: p.grad for name_, p in layer.named_parameters()}
    return out, grad_in, grads


@pytest.mark.parametrize("backend", backend_params(exclude=("numpy",)))
@pytest.mark.parametrize("name,factory,shape", _layer_cases())
def test_backend_matches_numpy(backend, name, factory, shape):
    """Forward, input-grad and parameter-grad equivalence at atol<=1e-5
    for every registered backend against the NumPy reference."""
    x = _x(shape, seed=11)
    out_n, gin_n, grads_n = _run_layer("numpy", factory, x)
    out_b, gin_b, grads_b = _run_layer(backend, factory, x)
    np.testing.assert_allclose(out_b, out_n, atol=ATOL, rtol=1e-5)
    np.testing.assert_allclose(gin_b, gin_n, atol=ATOL, rtol=1e-5)
    assert grads_n.keys() == grads_b.keys()
    for key in grads_n:
        np.testing.assert_allclose(
            grads_b[key], grads_n[key], atol=ATOL, rtol=1e-4, err_msg=key
        )


@pytest.mark.skipif(
    not native_available(), reason="native extension unavailable"
)
def test_native_sends_a_1x1_output_plane_to_the_fused_path():
    """A padded 3x3 conv on a 1x1 plane (VGG13-mini's last two layers)
    runs the inherited im2col + BLAS path and is counted as a fallback,
    forward and backward; a 2x2 plane still takes the C kernels.  Both
    match fused at atol 1e-5."""
    rng = np.random.default_rng(13)
    weight = (rng.standard_normal((32, 32, 3, 3)) / 17).astype(np.float32)
    bias = rng.standard_normal(32).astype(np.float32)
    for width, path in ((1, "fallback"), (2, "native")):
        x = rng.standard_normal((4, 32, width, width)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        native = NativeBackend()
        results = []
        for backend in (native, get_backend("fused")):
            out, ctx = backend.conv2d_forward(x, weight, bias, 1, 1)
            results.append((out, *backend.conv2d_backward(g, weight, ctx, True)))
        for op in ("conv2d_forward", "conv2d_backward"):
            assert native.dispatch_counts[op][path] == 1, (width, op)
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, atol=ATOL, rtol=1e-5)


# ----------------------------------------------------------------------
# Numeric gradchecks per backend (conv, linear, maxpool, attention, bn).
# ----------------------------------------------------------------------
def _gradcheck_cases():
    return [
        ("conv", lambda: nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(21)), (2, 2, 5, 5)),
        ("conv1x1", lambda: nn.Conv2d(3, 4, 1, rng=np.random.default_rng(22)), (2, 3, 4, 4)),
        ("linear", lambda: nn.Linear(4, 3, rng=np.random.default_rng(23)), (5, 4)),
        ("maxpool", lambda: nn.MaxPool2d(2), (2, 2, 6, 6)),
        ("attention", lambda: nn.MultiHeadAttention(6, 2, rng=np.random.default_rng(24)), (2, 3, 6)),
        ("batchnorm", lambda: nn.BatchNorm2d(3), (3, 3, 4, 4)),
    ]


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("op,factory,shape", _gradcheck_cases())
def test_gradcheck_matrix(backend, op, factory, shape):
    """Analytic gradients agree with central differences on every
    registered backend."""
    nn.init.reset_layer_rng(31)
    layer = factory()
    x = _x(shape, seed=41)
    with use_backend(backend):
        out = layer.forward(x)
        probe = np.random.default_rng(42).standard_normal(out.shape).astype(np.float32)
        layer.zero_grad()
        # Re-run forward so caches match the probe evaluation exactly.
        layer.forward(x)
        grad_in = layer.backward(probe)
        loss = linear_probe_loss(layer, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2
        for _, param in layer.named_parameters():
            if param.grad is None:
                continue
            numeric = numerical_gradient(loss, param.data)
            if np.abs(numeric).max() < 1e-3:
                # Mathematically-zero gradients (attention k_proj bias:
                # softmax is shift-invariant along keys) leave only fp32
                # noise in the central difference — compare absolutely.
                assert np.abs(param.grad - numeric).max() < 1e-3
            else:
                assert max_relative_error(param.grad, numeric) < 2e-2


# ----------------------------------------------------------------------
# Workspace pool.
# ----------------------------------------------------------------------
class TestWorkspacePool:
    def test_forward_backward_recycles_one_buffer(self):
        backend = FusedBackend()
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1))
        x = _x((2, 3, 8, 8))
        with use_backend(backend):
            for _ in range(4):
                out = conv(x)
                conv.zero_grad()
                conv.backward(np.ones_like(out))
        # First batch allocates (cols + grad_cols share one shape slot);
        # every later batch is all pool hits.
        assert backend.pool.misses <= 2
        assert backend.pool.hits >= 6

    def test_interleaved_layers_get_distinct_buffers(self):
        """fwd A, fwd B, bwd B, bwd A (pipeline-style in-flight overlap)
        must not alias workspaces across the two layers."""
        nn.init.reset_layer_rng(3)
        conv_a = nn.Conv2d(3, 4, 3, padding=1)
        conv_b = nn.Conv2d(3, 4, 3, padding=1)
        x_a, x_b = _x((2, 3, 8, 8), 1), _x((2, 3, 8, 8), 2)
        probe = _x((2, 3, 8, 8), 3)  # unused; keep rng parity

        def run(backend_name):
            nn.init.reset_layer_rng(3)
            a = nn.Conv2d(3, 4, 3, padding=1)
            b = nn.Conv2d(3, 4, 3, padding=1)
            with use_backend(backend_name):
                out_a, out_b = a(x_a), b(x_b)
                a.zero_grad(), b.zero_grad()
                gin_b = b.backward(np.ones_like(out_b))
                gin_a = a.backward(np.ones_like(out_a))
            return out_a, out_b, gin_a, gin_b, a.weight.grad, b.weight.grad

        for got, want in zip(run("fused"), run("numpy")):
            np.testing.assert_allclose(got, want, atol=ATOL, rtol=1e-5)

    def test_second_backward_on_released_ctx_raises(self):
        """Backward twice without a forward must fail loudly, not read a
        recycled workspace another layer may have overwritten."""
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(4))
        x = _x((2, 3, 8, 8))
        with use_backend(FusedBackend()):
            out = conv(x)
            conv.zero_grad()
            conv.backward(np.ones_like(out))
            with pytest.raises(RuntimeError, match="released context"):
                conv.backward(np.ones_like(out))

    def test_ctx_release_is_idempotent(self):
        backend = FusedBackend()
        x = _x((1, 2, 5, 5))
        with use_backend(backend):
            _, ctx = backend.conv2d_forward(
                x, _x((3, 2, 3, 3), 1), None, 1, 1
            )
        assert ctx.pooled
        ctx.release()
        parked = sum(len(v) for v in backend.pool._free.values())
        ctx.release()
        assert sum(len(v) for v in backend.pool._free.values()) == parked

    def test_pointwise_fast_path_skips_im2col(self):
        """1x1 stride-1 conv must not touch the pool: its cols are a view."""
        backend = FusedBackend()
        conv = nn.Conv2d(4, 6, 1, rng=np.random.default_rng(2))
        x = _x((2, 4, 5, 5))
        with use_backend(backend):
            conv(x)
        assert backend.pool.misses == 0
        assert conv._saved.cols.base is x  # reshape view, no copy

    def test_pool_bounds_parked_buffers(self):
        pool = FusedBackend(max_buffers_per_shape=2).pool
        buffers = [pool.acquire((3, 3), np.float32) for _ in range(5)]
        for buf in buffers:
            pool.release(buf)
        assert sum(len(v) for v in pool._free.values()) == 2

    def test_clear_caches_returns_workspace_to_pool(self):
        """Forward-only (Phase-GP style) batches hand their conv
        workspaces back through Module.clear_caches."""
        backend = FusedBackend()
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1))
        x = _x((2, 3, 8, 8))
        with use_backend(backend):
            conv(x)  # forward only: buffer stays checked out
            assert sum(len(v) for v in backend.pool._free.values()) == 0
            conv.clear_caches()
            assert sum(len(v) for v in backend.pool._free.values()) == 1
            conv(x)
        assert backend.pool.hits >= 1


# ----------------------------------------------------------------------
# im2col out= plumbing.
# ----------------------------------------------------------------------
class TestIm2colOut:
    def test_out_buffer_receives_columns(self):
        x = _x((2, 3, 6, 6))
        ref, oh, ow = F.im2col(x, 3, 1, 1)
        buf = np.empty_like(ref)
        got, oh2, ow2 = F.im2col(x, 3, 1, 1, out=buf)
        assert got is buf and (oh, ow) == (oh2, ow2)
        np.testing.assert_array_equal(got, ref)

    def test_out_shape_mismatch_raises(self):
        x = _x((2, 3, 6, 6))
        with pytest.raises(ValueError, match="out buffer"):
            F.im2col(x, 3, 1, 1, out=np.empty((1, 1, 1), dtype=np.float32))


# ----------------------------------------------------------------------
# Vectorized adaptive pooling (satellite).
# ----------------------------------------------------------------------
def _loop_adaptive_pool(x, out_hw):
    """The pre-vectorization double-loop reference."""
    out_h, out_w = out_hw
    batch, channels, height, width = x.shape
    rows = F.adaptive_pool_splits(height, out_h)
    cols = F.adaptive_pool_splits(width, out_w)
    out = np.empty((batch, channels, out_h, out_w), dtype=x.dtype)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            out[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


def _loop_adaptive_pool_backward(grad_out, input_shape):
    _, _, height, width = input_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    rows = F.adaptive_pool_splits(height, out_h)
    cols = F.adaptive_pool_splits(width, out_w)
    grad_in = np.zeros(input_shape, dtype=grad_out.dtype)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            area = (r1 - r0) * (c1 - c0)
            grad_in[:, :, r0:r1, c0:c1] += grad_out[:, :, i : i + 1, j : j + 1] / area
    return grad_in


class TestAdaptivePoolVectorized:
    # (in_h, in_w, out_h, out_w): tiling, unequal-tiling, overlapping
    # (5->3, 7->4), and expanding (2->3) windows.
    SIZES = [
        (8, 8, 2, 2),
        (6, 4, 3, 2),
        (5, 5, 3, 3),
        (7, 9, 4, 3),
        (2, 2, 3, 3),
        (4, 4, 4, 4),
    ]

    @pytest.mark.parametrize("h,w,oh,ow", SIZES)
    def test_forward_matches_loop_reference(self, h, w, oh, ow):
        x = _x((2, 3, h, w), seed=h * 10 + w)
        np.testing.assert_allclose(
            F.adaptive_avg_pool2d(x, (oh, ow)),
            _loop_adaptive_pool(x, (oh, ow)),
            atol=1e-6,
        )

    @pytest.mark.parametrize("h,w,oh,ow", SIZES)
    def test_backward_matches_loop_reference(self, h, w, oh, ow):
        grad = _x((2, 3, oh, ow), seed=h + w)
        np.testing.assert_allclose(
            F.adaptive_avg_pool2d_backward(grad, (2, 3, h, w)),
            _loop_adaptive_pool_backward(grad, (2, 3, h, w)),
            atol=1e-6,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_layer_gradcheck(self, backend):
        layer = nn.AdaptiveAvgPool2d(3)
        x = _x((2, 2, 5, 5), seed=9)
        with use_backend(backend):
            out = layer.forward(x)
            probe = np.random.default_rng(10).standard_normal(out.shape)
            probe = probe.astype(np.float32)
            grad_in = layer.backward(probe)
            loss = linear_probe_loss(layer, x, probe)
            assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2


# ----------------------------------------------------------------------
# Module.clear_caches (satellite).
# ----------------------------------------------------------------------
class TestClearCaches:
    def _model(self):
        nn.init.reset_layer_rng(5)
        return nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 3),
        )

    def test_clears_every_layer_cache(self):
        model = self._model()
        out = model(_x((2, 3, 8, 8)))
        model.backward(np.ones_like(out))
        assert all(layer._saved is not None for layer in model)
        model.clear_caches()
        for layer in model:
            assert layer._saved is None, type(layer).__name__

    def test_backward_after_clear_requires_forward(self):
        model = self._model()
        out = model(_x((2, 3, 8, 8)))
        model.clear_caches()
        with pytest.raises(RuntimeError):
            model.backward(np.ones_like(out))

    def test_parameters_and_grads_survive(self):
        model = self._model()
        out = model(_x((2, 3, 8, 8)))
        model.backward(np.ones_like(out))
        grads = {k: p.grad.copy() for k, p in model.named_parameters()}
        model.clear_caches()
        for key, param in model.named_parameters():
            np.testing.assert_array_equal(param.grad, grads[key])
