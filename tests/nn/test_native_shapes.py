"""Generated-shape equivalence for ``_native/kernels.c``.

The flattened-plane kernels tile consecutive positions across row and
sample boundaries and read a bounded slack past the last plane, so the
shapes that matter are the awkward ones: non-square planes, widths on
both sides of a vector tile, 1x1 planes, channel counts that leave the
last register block partial.  Hypothesis draws them; the NumPy backend
is the oracle (atol <= 1e-5, the backend contract).  Operands are scaled
so outputs and gradients are O(1) — the contract is about unit-scale
values, and float32 summation-order noise of the *reference* grows with
the magnitude of the partial sums.

Runs under the ASan/UBSan CI job too: it is the test that proves the
tile over-read stays inside the scratch allocation.
"""

import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.nn.backend import NativeBackend, get_backend, native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native extension unavailable"
)

ATOL = 1e-5


def _c_kernel_backend() -> NativeBackend:
    """A native backend without the speed rules: every float32 conv in
    the kernels' domain (stride 1, padding <= kernel - 1) goes to
    kernels.c, 1x1 convs and 1x1 output planes included, which default
    dispatch keeps on BLAS.  The domain check still applies."""
    backend = NativeBackend()
    backend._on_blas = lambda *shape: False
    return backend


def _operands(batch, in_c, out_c, height, width, kernel, stride, pad, seed):
    rng = np.random.default_rng(seed)
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1

    def normal(shape, scale):
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    x = normal((batch, in_c, height, width), 1.0)
    w = normal((out_c, in_c, kernel, kernel), (in_c * kernel * kernel) ** -0.5)
    b = normal(out_c, 1.0)
    g = normal((batch, out_c, out_h, out_w), (batch * out_h * out_w) ** -0.5)
    return x, w, b, g


def _conv(backend, x, w, b, g, stride, pad):
    """(out, grad_x, grad_w, grad_b) of one conv on ``backend``."""
    out, ctx = backend.conv2d_forward(x, w, b, stride, pad)
    grad_x, grad_w, grad_b = backend.conv2d_backward(g, w, ctx, with_bias=True)
    return out, grad_x, grad_w, grad_b


@given(
    batch=st.integers(1, 5),
    in_c=st.integers(1, 9),
    out_c=st.integers(1, 9),
    height=st.integers(1, 20),
    width=st.integers(1, 20),
    kernel=st.sampled_from([1, 3, 5]),
    same_pad=st.booleans(),
    stride=st.sampled_from([1, 2]),
    with_bias=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_kernels_match_numpy_on_generated_shapes(
    batch, in_c, out_c, height, width, kernel, same_pad, stride, with_bias, seed
):
    pad = kernel // 2 if same_pad else 0
    assume(height + 2 * pad >= kernel and width + 2 * pad >= kernel)
    x, w, b, g = _operands(
        batch, in_c, out_c, height, width, kernel, stride, pad, seed
    )
    if not with_bias:
        b = None
    native = _c_kernel_backend()
    got = _conv(native, x, w, b, g, stride, pad)
    want = _conv(get_backend("numpy"), x, w, b, g, stride, pad)
    # Stride 2 is outside the kernels' domain: im2col + BLAS, counted.
    path = "native" if stride == 1 else "fallback"
    counts = native.dispatch_counts
    assert counts["conv2d_forward"][path] == counts["conv2d_backward"][path] == 1
    for name, rtol, a, e in zip(
        ("out", "grad_x", "grad_w", "grad_b"), (1e-5, 1e-5, 1e-4, 1e-4), got, want
    ):
        np.testing.assert_allclose(a, e, atol=ATOL, rtol=rtol, err_msg=name)


def _batchnorm(backend, shape, seed):
    """Every array of one batch-norm op pair on ``backend`` (batch
    statistics, forward + backward), then a running-statistics no-grad
    forward with ``relu``."""
    rng = np.random.default_rng(seed)
    channels = shape[1]
    x = (rng.standard_normal(shape) * 3.0 + 20.0).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, channels).astype(np.float32)
    beta = rng.standard_normal(channels).astype(np.float32)
    out, mean, var, ctx = backend.batchnorm_forward(x, gamma, beta, 1e-5)
    grads = backend.batchnorm_backward(g, gamma, ctx, True)
    running = backend.batchnorm_forward(
        x, gamma, beta, 1e-5, (mean, var), relu=True, need_ctx=False
    )[0]
    return (out, mean, var, ctx.saved, ctx.inv_std, *grads, running)


# Shapes whose flattened length spans several parallel chunks, several
# weight-gradient blocks and a partial last block; batch-norm planes
# below one vector, across several and past one widening chunk, and 2-D.
DIGEST_SCRIPT = """
import hashlib
import sys
sys.path.insert(0, {tests_dir!r})
from test_native_shapes import _batchnorm, _c_kernel_backend, _conv, _operands

digest = hashlib.sha256()
for shape in ((4, 5, 6, 13, 13, 3, 1, 1), (3, 9, 7, 17, 5, 3, 1, 1),
              (5, 6, 9, 2, 2, 3, 1, 1), (2, 3, 5, 11, 20, 5, 1, 2),
              (2, 4, 6, 9, 9, 3, 1, 1)):
    x, w, b, g = _operands(*shape, seed=3)
    for array in _conv(_c_kernel_backend(), x, w, b, g, shape[6], shape[7]):
        digest.update(array.tobytes())
native = _c_kernel_backend()
for shape in ((5, 3, 2, 3), (4, 6, 13, 13), (2, 3, 24, 24), (33, 7)):
    for array in _batchnorm(native, shape, seed=4):
        digest.update(array.tobytes())
paths = native.dispatch_counts
assert paths["batchnorm_forward"]["fallback"] == 0
assert paths["batchnorm_backward"]["fallback"] == 0
print(digest.hexdigest())
"""


def test_bits_do_not_depend_on_the_thread_count():
    """Every output element and every (o, c) weight-gradient cell has
    one owner and a partition-independent summation order, and the
    batch-norm pair runs on one thread, so one and two OpenMP threads
    must produce the same bytes."""
    src = str(Path(repro.__file__).resolve().parents[1])
    script = DIGEST_SCRIPT.format(tests_dir=str(Path(__file__).resolve().parent))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(proc.stdout.strip().splitlines()[-1])
    assert len(digests[0]) == hashlib.sha256().digest_size * 2
    assert digests[0] == digests[1]


@pytest.mark.parametrize("kernel,pad", [(1, 1), (3, 3), (3, 4)])
def test_padding_past_the_kernel_takes_the_blas_path(kernel, pad):
    """``padding >= kernel`` is outside the kernels' domain (the input
    gradient's border ``K-1-pad`` would be negative): forward and
    backward fall back, also with the speed rules off, and match
    numpy."""
    x, w, b, g = _operands(2, 3, 4, 5, 6, kernel, 1, pad, seed=7)
    want = _conv(get_backend("numpy"), x, w, b, g, 1, pad)
    for native in (NativeBackend(), _c_kernel_backend()):
        got = _conv(native, x, w, b, g, 1, pad)
        for op in ("conv2d_forward", "conv2d_backward"):
            assert native.dispatch_counts[op] == {"native": 0, "fallback": 1}
        for name, a, e in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
            np.testing.assert_allclose(a, e, atol=ATOL, rtol=1e-4, err_msg=name)


CONV_ENTRIES = ("conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight")


@pytest.mark.parametrize("entry", CONV_ENTRIES)
def test_failed_scratch_allocation_raises(entry):
    """A C conv entry point that returns 0 (its scratch malloc failed)
    is a ``MemoryError`` naming it, not a silent slower path."""
    x, w, b, g = _operands(2, 3, 4, 6, 6, 3, 1, 1, seed=0)
    native = NativeBackend()
    stubs = {name: getattr(native._lib, name) for name in CONV_ENTRIES}
    stubs[entry] = lambda *args: 0
    native._lib = types.SimpleNamespace(**stubs)
    with pytest.raises(MemoryError, match=entry):
        _conv(native, x, w, b, g, 1, 1)


@pytest.mark.parametrize("entry", ("batchnorm_forward", "batchnorm_backward"))
def test_failed_batchnorm_scratch_allocation_raises(entry):
    """The batch-norm entry points report a failed scratch ``malloc``
    the same way."""
    native = NativeBackend()
    stubs = {
        name: getattr(native._lib, name)
        for name in ("batchnorm_forward", "batchnorm_backward")
    }
    stubs[entry] = lambda *args: 0
    native._lib = types.SimpleNamespace(**stubs)
    with pytest.raises(MemoryError, match=entry):
        _batchnorm(native, (4, 3, 5, 5), seed=0)


@pytest.mark.parametrize(
    "channels,width,kernel,path",
    [(24, 4, 3, "fallback"), (32, 4, 1, "fallback"), (24, 8, 3, "native")],
)
def test_unfold_sends_rows_of_two_cells_to_numpy(channels, width, kernel, path):
    """ResNet50-mini's stride-2 unfolds onto a 2x2 output take NumPy's
    strided copy, which fills such short rows faster; MobileNet-V2-mini's
    onto 4x4 runs the C loop.  Both give the reference's bytes."""
    x = np.random.default_rng(9).standard_normal((3, channels, width, width))
    x = x.astype(np.float32)
    padding = kernel // 2
    native = NativeBackend()
    got = native.unfold(x, kernel, 2, padding)
    want = get_backend("numpy").unfold(x, kernel, 2, padding)
    assert native.dispatch_counts["unfold"][path] == 1
    assert got[1:] == want[1:]
    np.testing.assert_array_equal(got[0], want[0])
