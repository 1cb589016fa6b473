"""Generated-input equivalence for the ``max_pool2d`` /
``max_pool2d_backward`` backend op pair.

Every backend shares one index format — a ``uint8`` window position per
output cell, first maximum wins, first NaN wins, padded slots read
``-inf`` — so unlike the float contractions the pair is compared
*bitwise*: ``out``, ``index`` and ``grad_x`` of the fused and native
backends against the NumPy reference, in grad and no-grad mode.
Hypothesis draws the geometries (K in {1, 2, 3}, stride 1-3, padding up
to K/2, odd and non-square planes, 1x1 output planes) and the values
that decide ties: ReLU zeros, +-inf, NaN, and ``-inf`` blocks next to
the padding ring, where the winner can be a padded slot whose gradient
is dropped.  No input holds -0.0 (ReLU never emits one): of a +-0 tie
the reference's no-grad ``max`` may return either zero.

Runs under the ASan/UBSan CI job too: the native kernels index raw
pointers by window position.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import nn
from repro.nn.backend import NativeBackend, get_backend, native_available

needs_native = pytest.mark.skipif(
    not native_available(), reason="native extension unavailable"
)


def _backends():
    names = ["fused"]
    if native_available():
        names.append("native")
    return names


def _bits(a: np.ndarray) -> np.ndarray:
    """Float arrays as their raw bits (NaN == NaN, -0 != 0); an index as
    it is."""
    a = np.ascontiguousarray(a)
    views = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}
    return a.view(views.get(a.dtype, a.dtype))


def _values(shape, mode, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    if mode in ("relu", "specials"):
        # Half-integer steps after ReLU: exact ties inside most windows.
        x = np.maximum(np.round(x * 2.0) / 2.0, 0.0).astype(np.float32)
    if mode == "specials":
        flat = x.reshape(-1)
        picks = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
        flat[picks] = rng.choice([np.inf, -np.inf, np.nan], size=picks.size)
        # An all -inf corner block: windows over it and the padding ring
        # are all -inf, so the first slot — possibly padding — wins.
        x[..., : max(1, shape[2] // 2), : max(1, shape[3] // 2)] = -np.inf
    return x


def _run(backend, x, g, kernel, stride, padding):
    out, index = backend.max_pool2d(x, kernel, stride, padding, True)
    grad_x = backend.max_pool2d_backward(g, index, x.shape, kernel, stride, padding)
    out_ng, index_ng = backend.max_pool2d(x, kernel, stride, padding, False)
    assert index_ng is None
    return {"out": out, "index": index, "grad_x": grad_x, "out_no_grad": out_ng}


@given(
    batch=st.integers(1, 3),
    channels=st.integers(1, 4),
    height=st.integers(1, 11),
    width=st.integers(1, 11),
    kernel=st.sampled_from([1, 2, 3]),
    stride=st.integers(1, 3),
    pad_half=st.booleans(),
    mode=st.sampled_from(["normal", "relu", "specials"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_backends_match_reference_bitwise(
    batch, channels, height, width, kernel, stride, pad_half, mode, seed
):
    padding = kernel // 2 if pad_half else 0
    assume(height + 2 * padding >= kernel and width + 2 * padding >= kernel)
    x = _values((batch, channels, height, width), mode, seed)
    ref = get_backend("numpy")
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    g = np.random.default_rng(seed + 1).standard_normal(
        (batch, channels, out_h, out_w)
    ).astype(np.float32)
    want = _run(ref, x, g, kernel, stride, padding)
    index = want["index"]
    assert index.dtype == np.uint8
    assert index.shape == (batch, channels, out_h, out_w)
    # The format itself: out is the window value the index names.
    windows = ref.unfold(x, kernel, stride, padding, -np.inf)[0]
    named = np.take_along_axis(
        windows.reshape(batch, channels, kernel * kernel, -1),
        index.reshape(batch, channels, 1, -1),
        axis=2,
    )
    np.testing.assert_array_equal(_bits(named).ravel(), _bits(want["out"]).ravel())
    for name in _backends():
        got = _run(get_backend(name), x, g, kernel, stride, padding)
        for key in ("out", "index", "grad_x", "out_no_grad"):
            np.testing.assert_array_equal(
                _bits(got[key]), _bits(want[key]), err_msg=f"{name} {key}"
            )


def test_all_neg_inf_window_picks_the_padded_slot():
    """np.argmax over a window of -inf values takes slot 0, which next to
    the border is padding: the index says so and the gradient is dropped,
    as col2im drops the ring."""
    x = np.full((1, 1, 3, 3), -np.inf, dtype=np.float32)
    g = np.ones((1, 1, 3, 3), dtype=np.float32)
    for name in ["numpy", *_backends()]:
        backend = get_backend(name)
        out, index = backend.max_pool2d(x, 3, 1, 1, True)
        assert (out == -np.inf).all()
        # Corner cell (0, 0): slot 0 is the padded (-1, -1).  Centre
        # cell: its whole window is real, slot 0 is x[0, 0].
        assert index[0, 0, 0, 0] == 0 and index[0, 0, 1, 1] == 0
        grad_x = backend.max_pool2d_backward(g, index, x.shape, 3, 1, 1)
        # Only cells whose slot 0 is real reach the input: (1,1)->x[0,0],
        # (1,2)->x[0,1], (2,1)->x[1,0], (2,2)->x[1,1].
        np.testing.assert_array_equal(
            grad_x[0, 0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        )


def test_first_nan_wins():
    x = np.array([[[[1.0, np.nan], [np.inf, np.nan]]]], dtype=np.float32)
    for name in ["numpy", *_backends()]:
        out, index = get_backend(name).max_pool2d(x, 2, 2, 0, True)
        assert np.isnan(out).all() and index.item() == 1, name


@needs_native
@pytest.mark.parametrize(
    "make",
    [
        lambda x: x.astype(np.float64),
        lambda x: np.concatenate([x, x], axis=3)[..., ::2],
    ],
    ids=["float64", "non_contiguous"],
)
def test_ineligible_operands_fall_back_and_are_counted(make):
    rng = np.random.default_rng(0)
    x = make(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    g = make(rng.standard_normal((2, 3, 3, 3)).astype(np.float32))
    native = NativeBackend()
    out, index = native.max_pool2d(x, 2, 2, 0, True)
    grad_x = native.max_pool2d_backward(g, index, x.shape, 2, 2, 0)
    ref = get_backend("numpy")
    want_out, want_index = ref.max_pool2d(x, 2, 2, 0, True)
    np.testing.assert_array_equal(_bits(out), _bits(want_out))
    np.testing.assert_array_equal(index, want_index)
    np.testing.assert_array_equal(
        _bits(grad_x),
        _bits(ref.max_pool2d_backward(g, want_index, x.shape, 2, 2, 0)),
    )
    assert native.dispatch_counts["max_pool2d"] == {"native": 0, "fallback": 1}
    assert native.dispatch_counts["max_pool2d_backward"] == {
        "native": 0,
        "fallback": 1,
    }


@needs_native
def test_layer_saves_the_uint8_index_and_runs_native():
    native = NativeBackend()
    pool = nn.MaxPool2d(2)
    x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32)
    with nn.use_backend(native):
        out = pool(x)
        index, x_shape = pool._saved
        assert index.dtype == np.uint8 and index.shape == out.shape
        assert x_shape == x.shape
        pool.backward(np.ones_like(out))
        with nn.no_grad():
            pool(x)
        assert pool._saved is nn.NO_GRAD
    assert native.dispatch_counts["max_pool2d"] == {"native": 2, "fallback": 0}
    assert native.dispatch_counts["max_pool2d_backward"] == {
        "native": 1,
        "fallback": 0,
    }
