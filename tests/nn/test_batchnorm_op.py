"""Generated-input equivalence for the ``batchnorm_forward`` /
``batchnorm_backward`` backend op pair.

The NumPy backend carries the pre-refactor layer math and is the oracle
(atol <= 1e-5, the backend contract).  Hypothesis draws what the
hand-picked matrix in ``test_backend.py`` does not: single-element
reductions (``N*H*W == 1``, where the unbiased-variance factor is
guarded), 1x1 planes, 2-D and 4-D inputs, non-contiguous ``x``, and
channels offset by up to 100 standard deviations — the input that
destroys a sum-of-squares variance and the reason the fused variance is
a contraction of the *centred* tensor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn.backend import (
    FusedBackend,
    NormCtx,
    backend_scope,
    get_backend,
    list_backends,
    native_available,
    use_backend,
)

ATOL = 1e-5


def _backends():
    return [
        name
        for name in list_backends()
        if name != "numpy" and (name != "native" or native_available())
    ]


def _case(batch, channels, height, width, two_d, offset, strided, seed):
    """(x, grad_out, layer state) with per-channel scale and offset."""
    rng = np.random.default_rng(seed)
    shape = (batch, channels) if two_d else (batch, channels, height, width)
    bshape = (1, channels) + (1,) * (len(shape) - 2)
    std = rng.uniform(0.5, 2.0, channels)
    centre = rng.uniform(-1.0, 1.0, channels) * offset * std
    values = rng.standard_normal(shape) * std.reshape(bshape) + centre.reshape(bshape)
    if strided:
        # Every other element of a buffer twice as long on the last axis.
        backing = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=np.float32)
        x = backing[..., ::2]
        x[...] = values
    else:
        x = values.astype(np.float32)
    count = x.size // channels
    state = {
        "gamma": rng.uniform(0.5, 1.5, channels).astype(np.float32),
        "beta": rng.standard_normal(channels).astype(np.float32),
        # Running statistics near the data's own, as a trained layer's
        # are: eval mode then subtracts nearly equal numbers too.
        "running_mean": np.float32(centre + 0.1 * std * rng.standard_normal(channels)),
        "running_var": np.float32(std**2 * rng.uniform(0.8, 1.25, channels)),
    }
    grad_out = (rng.standard_normal(shape) * count**-0.5).astype(np.float32)
    return x, grad_out, state


def _run(backend, x, grad_out, state, training, grad, relu):
    """Everything observable of one forward (+ backward) on ``backend``."""
    layer = (nn.BatchNorm2d if x.ndim == 4 else nn.BatchNorm1d)(x.shape[1])
    layer.weight.data = state["gamma"].copy()
    layer.bias.data = state["beta"].copy()
    layer.running_mean = state["running_mean"].copy()
    layer.running_var = state["running_var"].copy()
    layer.training = training
    seen = {}
    with use_backend(backend):
        if grad:
            seen["out"] = layer._normalize(x, relu=relu)
            seen["grad_x"] = layer.backward(grad_out)
            seen["grad_gamma"] = layer.weight.grad
            seen["grad_beta"] = layer.bias.grad
        else:
            with nn.no_grad():
                seen["out"] = layer._normalize(x, relu=relu)
            assert layer._saved is nn.module.NO_GRAD
    seen["running_mean"] = layer.running_mean
    seen["running_var"] = layer.running_var
    seen["stats_version"] = layer.stats_version
    return seen


@pytest.mark.parametrize("backend", _backends())
@given(
    batch=st.integers(1, 5),
    channels=st.integers(1, 9),
    height=st.integers(1, 6),
    width=st.integers(1, 6),
    two_d=st.booleans(),
    offset=st.sampled_from([0.0, 1.0, 10.0, 100.0]),
    strided=st.booleans(),
    training=st.booleans(),
    grad=st.booleans(),
    relu=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_matches_numpy_on_generated_inputs(
    backend, batch, channels, height, width, two_d, offset, strided,
    training, grad, relu, seed,
):
    x, grad_out, state = _case(
        batch, channels, height, width, two_d, offset, strided, seed
    )
    x_before = x.copy()
    got = _run(backend, x, grad_out, state, training, grad, relu)
    want = _run("numpy", x, grad_out, state, training, grad, relu)
    np.testing.assert_array_equal(x, x_before, err_msg="input was written to")
    assert got.keys() == want.keys()
    assert got["stats_version"] == want["stats_version"] == int(training)
    for name in want.keys() - {"stats_version"}:
        assert got[name].dtype == np.float32, name
        np.testing.assert_allclose(
            got[name], want[name], atol=ATOL, rtol=1e-5, err_msg=name
        )


def test_sum_of_squares_variance_would_not_pass():
    """The generated offsets are large enough to tell the formulations
    apart: E[x^2] - E[x]^2 in float32 misses the 1e-5 contract by two
    orders of magnitude where the centred contraction meets it."""
    x, _, _ = _case(5, 3, 6, 6, False, 100.0, False, seed=0)
    reference = x.var(axis=(0, 2, 3))
    shortcut = (x * x).mean(axis=(0, 2, 3)) - x.mean(axis=(0, 2, 3)) ** 2
    _, _, fused, _ = get_backend("fused").batchnorm_forward(
        x, np.ones(3, np.float32), np.zeros(3, np.float32), 1e-5
    )
    assert np.abs(shortcut / reference - 1.0).max() > 1e-3
    np.testing.assert_allclose(fused, reference, rtol=1e-5)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(3, 2, 2, 3), (4, 3)], ids=["4d", "2d"])
def test_fused_gradcheck_float64(shape, training):
    """Central differences in float64 through the fused op pair."""
    rng = np.random.default_rng(5)
    fused = get_backend("fused")
    channels = shape[1]
    x = rng.standard_normal(shape) + 3.0
    gamma = rng.uniform(0.5, 1.5, channels)
    beta = rng.standard_normal(channels)
    probe = rng.standard_normal(shape)
    stats = None
    if not training:
        stats = (rng.standard_normal(channels) + 3.0, rng.uniform(0.5, 1.5, channels))

    def loss():
        out = fused.batchnorm_forward(x, gamma, beta, 1e-5, stats)[0]
        return float((out * probe).sum())

    ctx = fused.batchnorm_forward(x, gamma, beta, 1e-5, stats)[3]
    analytic = fused.batchnorm_backward(probe, gamma, ctx, training)
    for got, wrt in zip(analytic, (x, gamma, beta)):
        numeric = np.zeros_like(wrt)
        for index in np.ndindex(wrt.shape):
            original = wrt[index]
            wrt[index] = original + 1e-6
            plus = loss()
            wrt[index] = original - 1e-6
            minus = loss()
            wrt[index] = original
            numeric[index] = (plus - minus) / 2e-6
        np.testing.assert_allclose(got, numeric, atol=1e-6, rtol=1e-6)


@pytest.mark.parametrize("backend", ["numpy"] + _backends())
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_backward_twice_returns_equal_results(backend, training):
    """Backward reads the context and leaves it as it found it — the
    pipeline executor restores a snapshot of ``_saved`` and runs it
    again."""
    x, grad_out, _ = _case(4, 3, 5, 5, False, 1.0, False, seed=2)
    layer = nn.BatchNorm2d(3)
    layer.training = training
    with use_backend(backend):
        layer(x)
        ctx = layer._saved
        saved, inv_std = ctx.saved.copy(), ctx.inv_std.copy()
        first = layer.backward(grad_out)
        assert layer._saved is ctx
        second = layer.backward(grad_out)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(ctx.saved, saved)
    np.testing.assert_array_equal(ctx.inv_std, inv_std)
    # Both backward calls accumulated the same parameter gradients.
    np.testing.assert_allclose(
        layer.bias.grad, 2 * grad_out.sum(axis=(0, 2, 3)), rtol=1e-5, atol=ATOL
    )


class _Recording(FusedBackend):
    """A fused backend that notes which of its ops ran."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def batchnorm_backward(self, *args):
        self.calls.append("batchnorm_backward")
        return super().batchnorm_backward(*args)


def test_backward_runs_on_the_backend_that_made_the_context():
    """``saved`` is x_hat on one backend and x - mean on another; a
    phase-level backend override between forward and backward must not
    hand one's tensor to the other's formula."""
    x, grad_out, _ = _case(4, 3, 5, 5, False, 1.0, False, seed=4)
    producer = _Recording()
    layer = nn.BatchNorm2d(3)
    with backend_scope(producer):
        layer(x)
    assert isinstance(layer._saved, NormCtx) and layer._saved.backend is producer
    with backend_scope("numpy"):
        got = layer.backward(grad_out)
    assert producer.calls == ["batchnorm_backward"]
    reference = nn.BatchNorm2d(3)
    with use_backend("numpy"):
        reference(x)
        want = reference.backward(grad_out)
    np.testing.assert_allclose(got, want, atol=ATOL, rtol=1e-5)


def test_no_grad_training_forward_allocates_one_full_size_array():
    """Forward-only streams write the normalisation into the centred
    buffer: the output *is* the op's only full-size allocation."""
    import tracemalloc

    x, _, _ = _case(8, 8, 32, 32, False, 1.0, False, seed=6)
    fused = get_backend("fused")
    gamma, beta = np.ones(8, np.float32), np.zeros(8, np.float32)
    fused.batchnorm_forward(x, gamma, beta, 1e-5, need_ctx=False)  # warm caches
    tracemalloc.start()
    out = fused.batchnorm_forward(x, gamma, beta, 1e-5, relu=True, need_ctx=False)[0]
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert out.base is None and out.nbytes == x.nbytes
    assert peak < 1.5 * x.nbytes
