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
    """A native backend that sends *every* float32 conv to kernels.c:
    1x1, strided and 1x1-output-plane ones, which default dispatch keeps
    on BLAS."""
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
    assert native.dispatch_counts["conv2d_forward"]["fallback"] == 0
    for name, rtol, a, e in zip(
        ("out", "grad_x", "grad_w", "grad_b"), (1e-5, 1e-5, 1e-4, 1e-4), got, want
    ):
        np.testing.assert_allclose(a, e, atol=ATOL, rtol=rtol, err_msg=name)


# Shapes whose flattened length spans several parallel chunks, several
# weight-gradient blocks and a partial last block.
DIGEST_SCRIPT = """
import hashlib
import sys
sys.path.insert(0, {tests_dir!r})
from test_native_shapes import _c_kernel_backend, _conv, _operands

digest = hashlib.sha256()
for shape in ((4, 5, 6, 13, 13, 3, 1, 1), (3, 9, 7, 17, 5, 3, 1, 1),
              (5, 6, 9, 2, 2, 3, 1, 1), (2, 3, 5, 11, 20, 5, 1, 2),
              (2, 4, 6, 9, 9, 3, 2, 1)):
    x, w, b, g = _operands(*shape, seed=3)
    for array in _conv(_c_kernel_backend(), x, w, b, g, shape[6], shape[7]):
        digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_bits_do_not_depend_on_the_thread_count():
    """Every output element and every (o, c) weight-gradient cell has
    one owner and a partition-independent summation order, so one and
    two OpenMP threads must produce the same bytes."""
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
