"""Bench: the native compiled conv backend against the fused baseline.

The gate is a per-layer sweep, one thread on both sides: the ten conv
layers of VGG13-mini at the repo benchmark's shapes (batch 32, planes
16/16/8/8/4/4/2/2/1/1 wide) plus 32->32 channels at widths 7, 14, 28 and
32 — plane widths on both sides of a vector tile and not multiples of
one — and VGG13-mini's four ``MaxPool2d(2)`` layers (no-grad forward,
and forward with the index plus backward; bitwise equal to fused).
Forward and forward+backward are timed interleaved round-by-round with
the fused backend (load drift hits both sides equally, medians keep the
ratio stable on shared runners), and every shape's timings (GMAC/s for
the convs) land in ``BENCH_native.json``.

Gate (blocking in CI on every host with a C compiler): no shape, conv
or pool, slower than ``MIN_SHAPE_RATIO``x fused, forward or
forward+backward, and the ten-layer conv forward+backward total at
least ``MIN_TEN_LAYER_SPEEDUP``x fused.  The sweep runs in a child
process with ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` pinned to 1:
the claim is kernel against kernel, and BLAS reads its thread count
when it loads, which under pytest is long before this module runs.
Every conv measurement is preceded by an equivalence sanity check at
bench shapes (rtol/atol 1e-3 — float32 summation-order noise at these
sizes; the strict 1e-5 equivalence lives in tests/nn/test_backend.py
and tests/nn/test_native_shapes.py), every pool measurement by a
bitwise one.

A whole ResNet50-mini BP step and the inherited linear row are recorded
next to it, without a gate.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_native.py -q
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _bench_io import interleaved_medians, record, timed
from repro import nn
from repro.models import build_mini
from repro.nn.backend import native_available
from repro.nn.losses import CrossEntropyLoss

MIN_SHAPE_RATIO = 0.8
MIN_TEN_LAYER_SPEEDUP = 1.25
BENCH_RTOL = 1e-3
BENCH_ATOL = 1e-3

BATCH = 32
# (in_channels, out_channels, plane width): VGG13-mini's conv layers on
# 16x16 inputs, then the off-tile widths.
VGG13_LAYERS = [
    (3, 12, 16), (12, 12, 16), (12, 16, 8), (16, 16, 8), (16, 24, 4),
    (24, 24, 4), (24, 32, 2), (32, 32, 2), (32, 32, 1), (32, 32, 1),
]
EXTRA_WIDTHS = [(32, 32, 7), (32, 32, 14), (32, 32, 28), (32, 32, 32)]
# (channels, plane width) into VGG13-mini's four MaxPool2d(2) layers.
VGG13_POOLS = [(12, 16), (16, 8), (24, 4), (32, 2)]

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="native extension unavailable (no C compiler or build failed)",
)


def _sweep_shape(in_c, out_c, width, seed):
    """Interleaved fused-vs-native medians for one conv3x3 shape."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((BATCH, in_c, width, width)).astype(np.float32)
    w = rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32)
    w *= (in_c * 9) ** -0.5
    g = rng.standard_normal((BATCH, out_c, width, width)).astype(np.float32)
    backends = {name: nn.get_backend(name) for name in ("fused", "native")}

    def forward(backend):
        out, ctx = backend.conv2d_forward(x, w, None, 1, 1)
        ctx.release()
        return out

    def forward_backward(backend):
        out, ctx = backend.conv2d_forward(x, w, None, 1, 1)
        return (out, *backend.conv2d_backward(g, w, ctx)[:2])

    # Native must match fused at bench shapes before anything is timed
    # (this also warms pools and kernel dispatch).
    for got, want in zip(*(forward_backward(b) for b in backends.values())):
        np.testing.assert_allclose(want, got, rtol=BENCH_RTOL, atol=BENCH_ATOL)

    ops = {"fwd": forward, "fwd_bwd": forward_backward}
    medians = interleaved_medians(
        {
            (name, op): timed(fn, backend)
            for name, backend in backends.items()
            for op, fn in ops.items()
        },
        rounds=12 if width > 16 else 40,
    )
    macs = BATCH * width * width * in_c * out_c * 9
    row = {"shape": f"{in_c}->{out_c}@{width}x{width}", "macs": macs}
    for op, passes in (("fwd", 1), ("fwd_bwd", 3)):
        fused_s, native_s = medians["fused", op], medians["native", op]
        row[op] = {
            "fused_ms": fused_s * 1e3,
            "native_ms": native_s * 1e3,
            "fused_gmacs": passes * macs / fused_s / 1e9,
            "native_gmacs": passes * macs / native_s / 1e9,
            "speedup": fused_s / native_s,
        }
    return row


def _sweep_pool(channels, width, seed):
    """Interleaved fused-vs-native medians for one MaxPool2d(2) shape:
    ``fwd`` is the no-grad forward (Phase-GP and evaluation batches),
    ``fwd_bwd`` the indexed forward plus backward (BP batches)."""
    rng = np.random.default_rng(seed)
    x = np.maximum(rng.standard_normal((BATCH, channels, width, width)), 0.0)
    x = x.astype(np.float32)  # ReLU zeros: ties in most windows
    g = rng.standard_normal((BATCH, channels, width // 2, width // 2))
    g = g.astype(np.float32)
    backends = {name: nn.get_backend(name) for name in ("fused", "native")}

    def forward(backend):
        return backend.max_pool2d(x, 2, 2, 0, False)

    def forward_backward(backend):
        out, index = backend.max_pool2d(x, 2, 2, 0, True)
        return out, index, backend.max_pool2d_backward(g, index, x.shape, 2, 2, 0)

    # The op pair shares one index format: native must match fused bit
    # for bit before anything is timed.
    for op in (forward, forward_backward):
        for want, got in zip(op(backends["fused"]), op(backends["native"])):
            np.testing.assert_array_equal(got, want)

    medians = interleaved_medians(
        {
            (name, op): timed(fn, backend)
            for name, backend in backends.items()
            for op, fn in (("fwd", forward), ("fwd_bwd", forward_backward))
        },
        rounds=40,
    )
    row = {"shape": f"maxpool2@{channels}x{width}x{width}"}
    for op in ("fwd", "fwd_bwd"):
        fused_s, native_s = medians["fused", op], medians["native", op]
        row[op] = {
            "fused_ms": fused_s * 1e3,
            "native_ms": native_s * 1e3,
            "speedup": fused_s / native_s,
        }
    return row


def sweep():
    """Every shape's row plus the ten-layer totals (run pinned: see
    ``test_bench_native_conv_gate``)."""
    shapes = VGG13_LAYERS + EXTRA_WIDTHS
    rows = [_sweep_shape(*shape, seed=3 + i) for i, shape in enumerate(shapes)]
    ten = rows[: len(VGG13_LAYERS)]
    totals = {}
    for op in ("fwd", "fwd_bwd"):
        fused_ms = sum(row[op]["fused_ms"] for row in ten)
        native_ms = sum(row[op]["native_ms"] for row in ten)
        totals[op] = {
            "fused_ms": fused_ms,
            "native_ms": native_ms,
            "speedup": fused_ms / native_ms,
        }
    pools = [
        _sweep_pool(*shape, seed=30 + i) for i, shape in enumerate(VGG13_POOLS)
    ]
    return {
        "batch": BATCH,
        "shapes": rows,
        "vgg13_ten_layers": totals,
        "pool_shapes": pools,
    }


def test_bench_native_conv_gate(benchmark):
    """Per-layer conv3x3 and max-pool sweep, native vs fused, one thread
    each."""
    src = Path(nn.__file__).resolve().parents[2]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(src),
    }

    def measure():
        proc = subprocess.run(
            [sys.executable, __file__],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    totals = result["vgg13_ten_layers"]
    benchmark.extra_info["ten_layer_fwd_bwd_speedup"] = totals["fwd_bwd"]["speedup"]
    record(
        "BENCH_native.json",
        "conv_sweep",
        {
            **result,
            "threads": 1,
            "gate": {
                "min_shape_ratio": MIN_SHAPE_RATIO,
                "min_ten_layer_fwd_bwd_speedup": MIN_TEN_LAYER_SPEEDUP,
            },
        },
    )
    print("\nconv3x3 batch 32, one thread (ms fused / native, GMAC/s native):")
    for row in result["shapes"]:
        fwd, both = row["fwd"], row["fwd_bwd"]
        print(
            f"  {row['shape']:>14}  fwd {fwd['fused_ms']:7.3f} / "
            f"{fwd['native_ms']:7.3f} ({fwd['speedup']:5.2f}x, "
            f"{fwd['native_gmacs']:5.1f})  fwd+bwd {both['fused_ms']:7.3f} / "
            f"{both['native_ms']:7.3f} ({both['speedup']:5.2f}x, "
            f"{both['native_gmacs']:5.1f})"
        )
    for op, total in totals.items():
        print(
            f"  ten VGG13 layers {op}: fused {total['fused_ms']:.2f} ms, "
            f"native {total['native_ms']:.2f} ms ({total['speedup']:.2f}x)"
        )
    for row in result["pool_shapes"]:
        fwd, both = row["fwd"], row["fwd_bwd"]
        print(
            f"  {row['shape']:>20}  no-grad fwd {fwd['fused_ms']:6.3f} / "
            f"{fwd['native_ms']:6.3f} ({fwd['speedup']:5.2f}x)  fwd+bwd "
            f"{both['fused_ms']:6.3f} / {both['native_ms']:6.3f} "
            f"({both['speedup']:5.2f}x)"
        )
    slow = [
        (row["shape"], op, row[op]["speedup"])
        for row in result["shapes"] + result["pool_shapes"]
        for op in ("fwd", "fwd_bwd")
        if row[op]["speedup"] < MIN_SHAPE_RATIO
    ]
    assert not slow, f"native below {MIN_SHAPE_RATIO}x fused: {slow}"
    assert totals["fwd_bwd"]["speedup"] >= MIN_TEN_LAYER_SPEEDUP


def _linear_table():
    """Fused-vs-native linear timings for the BENCH_native.json record
    (native inherits the fused BLAS path, so the ratio reads ~1)."""
    rng = np.random.default_rng(5)
    x_lin = rng.standard_normal((256, 512)).astype(np.float32)
    w_lin = rng.standard_normal((128, 512)).astype(np.float32)

    def time_op(backend, rounds=20):
        backend.linear_forward(x_lin, w_lin, None)  # warm
        start = time.perf_counter()
        for _ in range(rounds):
            backend.linear_forward(x_lin, w_lin, None)
        return (time.perf_counter() - start) / rounds * 1e3

    fused_ms = time_op(nn.get_backend("fused"))
    native_ms = time_op(nn.get_backend("native"))
    return {
        "linear_fwd": {
            "fused_ms": fused_ms,
            "native_ms": native_ms,
            "speedup": fused_ms / native_ms,
        }
    }


def test_bench_native_model_step(benchmark):
    """ResNet50-mini BP step on native vs fused (recorded, no gate —
    the whole-model ratio mixes ops the native backend inherits)."""
    loss_fn = CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, 16)
    models = {
        name: build_mini("ResNet50", 10, rng=np.random.default_rng(1))
        for name in ("fused", "native")
    }

    def bp_step(name):
        model = models[name]
        with nn.use_backend(name):
            outputs = model(x)
            _, grad = loss_fn(outputs, y)
            model.zero_grad()
            model.backward(grad)

    # Equivalence sanity at model scale before timing anything.
    outs = {}
    for name in models:
        with nn.use_backend(name):
            outs[name] = models[name](x)
    np.testing.assert_allclose(
        outs["native"], outs["fused"], rtol=BENCH_RTOL, atol=BENCH_ATOL
    )

    for name in models:  # warm
        bp_step(name)
        bp_step(name)

    medians = benchmark.pedantic(
        interleaved_medians,
        args=({name: timed(bp_step, name) for name in models}, 15),
        rounds=1,
        iterations=1,
    )
    fused_s, native_s = medians["fused"], medians["native"]
    speedup = fused_s / native_s
    ops = _linear_table()
    benchmark.extra_info["fused_ms"] = fused_s * 1e3
    benchmark.extra_info["native_ms"] = native_s * 1e3
    benchmark.extra_info["speedup"] = speedup
    record(
        "BENCH_native.json",
        "model_step",
        {
            "model": "ResNet50-mini",
            "batch": 16,
            "fused_step_ms": fused_s * 1e3,
            "native_step_ms": native_s * 1e3,
            "speedup": speedup,
            "ops": ops,
        },
    )
    print(
        f"\nResNet50-mini BP batch: fused {fused_s * 1e3:.2f} ms, "
        f"native {native_s * 1e3:.2f} ms ({speedup:.2f}x)"
    )


if __name__ == "__main__":
    print(json.dumps(sweep()))
