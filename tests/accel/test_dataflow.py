"""Tests for the systolic-array cycle models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import AcceleratorConfig, DataflowKind
from repro.accel.dataflow import (
    gemm_cycles,
    gemm_cycles_is,
    gemm_cycles_os,
    gemm_cycles_ws,
    layer_backward_cycles,
    layer_forward_cycles,
    rs_conv_cycles,
)
from repro.models.specs import LayerKind, LayerSpec, SpecBuilder

CFG = AcceleratorConfig()  # 12 x 15 = 180 PEs, WS


def _conv_spec(in_ch=64, out_ch=64, k=3, size=28, stride=1, pad=1):
    builder = SpecBuilder("t", (in_ch, size, size))
    builder.conv(out_ch, k, stride=stride, padding=pad)
    return builder.build().layers[0]


class TestGemmCycles:
    def test_single_fold_ws(self):
        """GEMM fitting the array exactly: one fold of fill+stream+drain."""
        cycles = gemm_cycles_ws(m=15, k=12, n=100, rows=12, cols=15)
        assert cycles == 12 + (100 + 12 + 15 - 2)

    def test_folds_multiply(self):
        one = gemm_cycles_ws(15, 12, 100, 12, 15)
        four = gemm_cycles_ws(30, 24, 100, 12, 15)
        assert four == 4 * one

    def test_os_streams_reduction(self):
        cycles = gemm_cycles_os(m=12, k=500, n=15, rows=12, cols=15)
        assert cycles == 500 + 12 + 15 - 2 + 12

    def test_is_streams_weights(self):
        cycles = gemm_cycles_is(m=300, k=12, n=15, rows=12, cols=15)
        assert cycles == 12 + (300 + 12 + 15 - 2)

    def test_dispatch_matches_direct(self):
        assert gemm_cycles(20, 30, 40, CFG) == gemm_cycles_ws(20, 30, 40, 12, 15)
        os_cfg = CFG.with_dataflow(DataflowKind.OUTPUT_STATIONARY)
        assert gemm_cycles(20, 30, 40, os_cfg) == gemm_cycles_os(20, 30, 40, 12, 15)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            gemm_cycles(0, 1, 1, CFG)

    @given(
        m=st.integers(1, 200), k=st.integers(1, 200), n=st.integers(1, 500)
    )
    @settings(max_examples=60, deadline=None)
    def test_cycles_bounded_below_by_ideal(self, m, k, n):
        """No dataflow can beat perfect PE utilization."""
        for flow in (gemm_cycles_ws, gemm_cycles_os, gemm_cycles_is):
            cycles = flow(m, k, n, 12, 15)
            assert cycles >= m * k * n / 180

    @given(m=st.integers(1, 64), k=st.integers(1, 64), n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotone_in_n(self, m, k, n):
        assert gemm_cycles_ws(m, k, n + 1, 12, 15) >= gemm_cycles_ws(m, k, n, 12, 15)


class TestLayerCycles:
    def test_backward_roughly_twice_forward(self):
        """The paper's BW ~ 2x FW assumption should emerge for big convs."""
        spec = _conv_spec(in_ch=128, out_ch=128, size=28)
        fw = layer_forward_cycles(spec, 32, CFG)
        bw = layer_backward_cycles(spec, 32, CFG)
        assert 1.6 < bw / fw < 2.4

    def test_pool_layers_are_cheap(self):
        builder = SpecBuilder("t", (64, 28, 28))
        builder.pool(2)
        pool = builder.build().layers[0]
        conv = _conv_spec()
        assert layer_forward_cycles(pool, 32, CFG) < layer_forward_cycles(
            conv, 32, CFG
        ) / 100

    def test_rs_conv_uses_logical_pe_mapping(self):
        spec = _conv_spec(size=28)
        rs_cfg = CFG.with_dataflow(DataflowKind.ROW_STATIONARY)
        cycles = rs_conv_cycles(spec, 1, rs_cfg)
        logical = spec.kernel_size * spec.out_h
        folds = -(-logical // 180)
        expected = folds * (3 * 28 * 64 * 64) + (12 + 15 - 2)
        assert cycles == expected

    def test_rs_rejects_non_conv(self):
        fc = LayerSpec(name="fc", kind=LayerKind.LINEAR, in_channels=10,
                       out_channels=10, out_h=1, out_w=1)
        with pytest.raises(ValueError):
            rs_conv_cycles(fc, 1, CFG)

    def test_utilization_bounded(self):
        """Achieved MACs/cycle over peak: no dataflow beats the array."""
        spec = _conv_spec(in_ch=256, out_ch=256, size=14)
        for flow in DataflowKind:
            cfg = CFG.with_dataflow(flow)
            cycles = layer_forward_cycles(spec, 32, cfg)
            u = spec.macs_forward(32) / (cycles * cfg.num_pes)
            assert 0.0 < u <= 1.0

    def test_batch_scales_forward_work(self):
        spec = _conv_spec()
        one = layer_forward_cycles(spec, 1, CFG)
        thirty_two = layer_forward_cycles(spec, 32, CFG)
        assert 20 < thirty_two / one <= 33


class TestAcceleratorConfig:
    def test_num_pes(self):
        assert CFG.num_pes == 180

    def test_with_dataflow_preserves_other_fields(self):
        other = CFG.with_dataflow(DataflowKind.ROW_STATIONARY)
        assert other.rows == CFG.rows
        assert other.dataflow == DataflowKind.ROW_STATIONARY

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(rows=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(dram_bandwidth_bytes_per_cycle=0)
