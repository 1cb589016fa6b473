"""Analytical cycle models for systolic-array GEMMs under each dataflow.

The models follow the SCALE-Sim analytical formulation: a GEMM
``(M x K) @ (K x N)`` is tiled ("folded") onto the R x C array according
to which operand stays resident, and each fold pays an array-fill /
drain overhead in addition to its streaming cycles.

* **WS** — weights stationary: K maps to rows, M to columns; the N input
  vectors stream through.  Folds: ceil(K/R) * ceil(M/C).
* **OS** — outputs stationary: M maps to rows, N to columns; the K
  reduction streams.  Folds: ceil(M/R) * ceil(N/C).
* **IS** — inputs stationary: K maps to rows, N to columns; the M weight
  rows stream.  Folds: ceil(K/R) * ceil(N/C).
* **RS** — row stationary (Eyeriss): modelled for convolutions by the
  logical-PE mapping (filter rows x output rows spatially, everything
  else temporal).  Non-convolution GEMMs on an RS machine are costed
  with the WS formula (documented approximation — Eyeriss-class designs
  fall back to a GEMM mapping for FC layers).
"""

from __future__ import annotations

from .config import AcceleratorConfig, DataflowKind
from ..models.specs import LayerKind, LayerSpec


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def gemm_cycles_ws(m: int, k: int, n: int, rows: int, cols: int) -> int:
    """Weight-stationary GEMM cycles."""
    folds = _ceil_div(k, rows) * _ceil_div(m, cols)
    per_fold = rows + (n + rows + cols - 2)  # weight fill + stream + drain
    return folds * per_fold


def gemm_cycles_os(m: int, k: int, n: int, rows: int, cols: int) -> int:
    """Output-stationary GEMM cycles."""
    folds = _ceil_div(m, rows) * _ceil_div(n, cols)
    per_fold = k + rows + cols - 2 + rows  # stream + skew + output drain
    return folds * per_fold


def gemm_cycles_is(m: int, k: int, n: int, rows: int, cols: int) -> int:
    """Input-stationary GEMM cycles."""
    folds = _ceil_div(k, rows) * _ceil_div(n, cols)
    per_fold = rows + (m + rows + cols - 2)  # input fill + weight stream
    return folds * per_fold


def gemm_cycles(
    m: int, k: int, n: int, config: AcceleratorConfig,
    dataflow: DataflowKind | None = None,
) -> int:
    """Dispatch a GEMM to the configured dataflow's cycle model."""
    if m <= 0 or k <= 0 or n <= 0:
        raise ValueError(f"GEMM dims must be positive, got ({m}, {k}, {n})")
    dataflow = dataflow or config.dataflow
    if dataflow == DataflowKind.WEIGHT_STATIONARY:
        return gemm_cycles_ws(m, k, n, config.rows, config.cols)
    if dataflow == DataflowKind.OUTPUT_STATIONARY:
        return gemm_cycles_os(m, k, n, config.rows, config.cols)
    if dataflow == DataflowKind.INPUT_STATIONARY:
        return gemm_cycles_is(m, k, n, config.rows, config.cols)
    if dataflow == DataflowKind.ROW_STATIONARY:
        # RS has no generic GEMM mapping; callers cost convolutions with
        # rs_conv_cycles and fall back to WS for matrix layers.
        return gemm_cycles_ws(m, k, n, config.rows, config.cols)
    raise ValueError(f"unknown dataflow {dataflow}")


def rs_conv_cycles(spec: LayerSpec, batch: int, config: AcceleratorConfig) -> int:
    """Row-stationary cycles for a convolution layer (Eyeriss-style).

    The logical PE set is ``kernel_h x out_h`` (one PE per filter-row /
    output-row pair); each logical PE performs a 1-D convolution of
    ``kernel_w * out_w`` MACs, repeated temporally over input channels,
    filters and batch.  Folding the logical set onto the physical array
    serializes whole passes.
    """
    if spec.kind not in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV):
        raise ValueError(f"rs_conv_cycles needs a conv layer, got {spec.kind}")
    logical = spec.kernel_h_eff * spec.out_h
    folds = _ceil_div(logical, config.num_pes)
    if spec.kind == LayerKind.DEPTHWISE_CONV:
        temporal = spec.kernel_w_eff * spec.out_w * spec.out_channels * batch
    else:
        temporal = (
            spec.kernel_w_eff
            * spec.out_w
            * spec.in_channels
            * spec.out_channels
            * batch
        )
    fill = config.rows + config.cols - 2
    return folds * temporal + fill


def layer_forward_cycles(
    spec: LayerSpec, batch: int, config: AcceleratorConfig
) -> int:
    """Forward-pass cycles of one layer.

    Pool / norm / activation layers execute on the post-processing SIMD
    path; they are costed at one cycle per output element / array width,
    which keeps them (correctly) negligible against GEMM layers.
    """
    if spec.is_compute:
        if (
            config.dataflow == DataflowKind.ROW_STATIONARY
            and spec.kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV)
        ):
            return rs_conv_cycles(spec, batch, config)
        m, k, n = spec.gemm_dims(batch)
        return gemm_cycles(m, k, n, config)
    return _ceil_div(spec.output_size * batch, config.num_pes)


def layer_backward_cycles(
    spec: LayerSpec, batch: int, config: AcceleratorConfig
) -> int:
    """Backward-pass cycles: the dX GEMM plus the dW GEMM.

    For GEMM ``out = W(MxK) @ x(KxN)``: dX is a ``(KxM)@(MxN)`` product
    and dW is a ``(MxN)@(NxK)`` product, together roughly twice the
    forward work — reproducing the paper's "BW pass is twice as long as
    the FW pass" assumption (§3.7) from first principles.
    """
    if not spec.is_compute:
        return _ceil_div(spec.output_size * batch, config.num_pes)
    if (
        config.dataflow == DataflowKind.ROW_STATIONARY
        and spec.kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV)
    ):
        # Transposed conv for dX + row-stationary correlation for dW.
        return 2 * rs_conv_cycles(spec, batch, config)
    m, k, n = spec.gemm_dims(batch)
    dx = gemm_cycles(k, m, n, config)  # gradient w.r.t. the streamed operand
    dw = gemm_cycles(m, n, k, config)  # gradient w.r.t. the resident operand
    return dx + dw
