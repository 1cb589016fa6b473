"""The ADA-GP predictor model.

A single small network shared by *all* layers of the DNN (paper
contribution 2).  Following §3.6, it is a stack of pooling layers and a
small Conv2d, followed by one fully connected layer sized for the
largest layer of the DNN model; smaller layers mask / truncate the FC
output to their own gradient-row size.  Its shape is fixed: the module
constants below are the one architecture, which the accelerator model
(:class:`repro.accel.config.PredictorHardware`) reads as well.

Input  : reorganized activations ``(out_ch, 1, H, W)``
Output : gradient rows ``(out_ch, max_row)`` masked to ``(out_ch, row)``

The paper trains the predictor with Adam (lr 1e-4) on the true
backpropagated gradients during Warm-Up and Phase BP.  Because raw
gradient magnitudes vary by orders of magnitude across layers and over
training, the predictor learns *normalized* targets (per-layer running
RMS scale, re-applied at prediction time); the paper does not specify
this detail (DESIGN.md §2).
"""

from __future__ import annotations

import functools
import weakref
from typing import NamedTuple, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.backend import current_backend
from ..nn.graph import trace
from ..nn.module import Module, PredictableMixin
from . import reorganize
from .metrics import MAPE_EPS

#: The front pool's output grid side: every input plane is pooled (or
#: folded, DESIGN.md §4) onto ``POOL_SIZE x POOL_SIZE`` cells.
POOL_SIZE = 8
#: Output channels of the predictor's one convolution.
CONV_CHANNELS = 4
#: Side of its square kernel (padding keeps the grid size).
CONV_KERNEL = 3
#: The final pool's output side: the FC reads
#: ``CONV_CHANNELS * FINAL_POOL**2`` values per sample.
FINAL_POOL = 4
#: Momentum of each layer's running target RMS scale.
SCALE_MOMENTUM = 0.9
#: Predicted rows are clipped to +-CLIP_SIGMA * (per-layer running RMS):
#: the accelerator's update datapath saturates rather than overflowing,
#: and the clip breaks the "noisy prediction -> larger gradients ->
#: larger scale" feedback loop in long fp32 runs.
CLIP_SIGMA = 3.0


@functools.lru_cache(maxsize=256)
def _pool_matrix(in_hw: tuple[int, int], out_hw: tuple[int, int]) -> np.ndarray:
    """The adaptive average pool from ``in_hw`` to ``out_hw`` as one
    ``(out cells, in cells)`` matrix: the Kronecker product of the two
    per-axis operators (:func:`~repro.nn.functional.adaptive_pool_operator`).
    Shared between callers and therefore read-only."""
    matrix = np.kron(
        F.adaptive_pool_operator(in_hw[0], out_hw[0]),
        F.adaptive_pool_operator(in_hw[1], out_hw[1]),
    )
    matrix.setflags(write=False)
    return matrix


class PredictorNetwork(Module):
    """Pool -> Conv -> ReLU -> Pool -> Flatten -> FC (paper Fig 6), in
    the one shape the module constants give.

    The layered :meth:`forward` / :meth:`backward` are the parameter
    container and the test oracle.  :class:`GradientPredictor` executes
    the same function as two GEMMs (DESIGN.md §4): the network has one
    non-linearity, so on the fixed ``input_grid`` it is
    ``relu(inputs @ front + b1) @ W2 + b2`` with ``front`` the
    convolution written as a dense matrix (a plane with no more cells
    than the grid folds the front pool into it as well) and ``W2`` the
    FC with the final pool absorbed — see :meth:`operator`.  The hidden
    layer runs at its tied width (:meth:`layout`): conv positions that
    see the same neighbourhood for every input compute equal columns, so
    each group is computed once — 96 of 256 columns on the
    transformer's ``1x6``/``1x7`` planes, 36 on a ``1x1`` plane, all 256
    on a stack pooled to the grid.
    """

    def __init__(
        self, max_row: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.max_row = max_row
        self.input_grid = (POOL_SIZE, POOL_SIZE)
        self.net = nn.Sequential(
            nn.AdaptiveAvgPool2d(POOL_SIZE),
            nn.Conv2d(1, CONV_CHANNELS, CONV_KERNEL, padding=CONV_KERNEL // 2, rng=rng),
            nn.ReLU(),
            nn.AdaptiveAvgPool2d(FINAL_POOL),
            nn.Flatten(),
            nn.Linear(CONV_CHANNELS * FINAL_POOL * FINAL_POOL, max_row, rng=rng),
        )
        # The conv's im2col over the one-hot images of the input grid:
        # row (position l, grid cell p), column tap k.  Constant, so the
        # dense conv matrix is one small GEMM with the flat conv weight
        # and its backward another — no im2col/col2im per call.
        conv = self.net.layers[1]
        cells = POOL_SIZE * POOL_SIZE
        basis = np.eye(cells, dtype=np.float32).reshape(cells, 1, POOL_SIZE, POOL_SIZE)
        cols, out_h, out_w = F.im2col(
            basis, conv.kernel_size, conv.stride, conv.padding
        )
        self._conv_hw = (out_h, out_w)
        self._taps = np.ascontiguousarray(cols.transpose(2, 0, 1)).reshape(
            out_h * out_w * cells, -1
        )
        self._layouts: dict[tuple, _Layout] = {}
        self._versions: Optional[tuple[int, ...]] = None
        self._operators: dict[tuple, tuple] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)

    # ------------------------------------------------------------------
    # The two-GEMM form.  Samples are independent, so the inputs of
    # *different* DNN layers stack along the sample axis, their columns
    # one segment per entry of ``extents``: ``None`` is a plane pooled
    # onto ``input_grid`` first, ``(h, w)`` a plane with no more cells
    # than the grid, folded in raw.
    # ------------------------------------------------------------------
    def layout(self, extents: tuple[Optional[tuple[int, int]], ...]) -> "_Layout":
        """Which conv positions compute equal hidden columns for inputs
        laid out as ``extents`` say.

        Grid cells whose rows are equal in every segment's pool matrix
        (the identity for a pooled segment) hold the same value for
        every input; two positions whose nine taps read such cells in
        the same order (padding included) see the same neighbourhood,
        so their conv outputs are equal for every input and every
        weight.  Each group keeps its first position as representative,
        and groups are numbered by that position: where nothing ties,
        the layout is the identity.  Weight-independent, so cached per
        ``extents`` for the network's lifetime.
        """
        layout = self._layouts.get(extents)
        if layout is not None:
            return layout
        grid = self.input_grid
        cells = grid[0] * grid[1]
        keys = np.hstack(
            [
                np.eye(cells, dtype=np.float32)
                if extent is None
                else _pool_matrix(extent, grid)
                for extent in extents
            ]
        )
        cell_class = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
        positions = self._conv_hw[0] * self._conv_hw[1]
        taps = self._taps.reshape(positions, cells, -1)
        # Each position's taps as cell classes; -1 is padding.
        tap_class = np.where(
            taps.any(axis=1), cell_class[taps.argmax(axis=1)], -1
        )
        _, first, group = np.unique(
            tap_class, axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first, group = first[order], rank[group.reshape(-1)]
        # The final pool with each group's columns summed: W2.T with
        # tied columns summed is W_fc @ this, and g_W_fc takes the
        # tied-width g_W2.T through its transpose.
        final = _pool_matrix(self._conv_hw, self.net.layers[3].output_size)
        pool_t = np.zeros((len(first), final.shape[0]), dtype=final.dtype)
        np.add.at(pool_t, group, final.T)
        channels = self.net.layers[1].out_channels
        layout = _Layout(
            (np.arange(channels)[:, None] * positions + first).ravel(),
            np.ascontiguousarray(taps[first]).reshape(-1, taps.shape[2]),
            np.ascontiguousarray(pool_t.T),
        )
        self._layouts[extents] = layout
        return layout

    def operator(
        self, extents: tuple[Optional[tuple[int, int]], ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, "_Layout"]:
        """``(front, b1, W2.T, b2, layout)`` for inputs laid out as
        ``extents`` say, at the tied width of their :meth:`layout`.

        ``front`` holds one segment per extent: ``D.T`` (the conv as a
        dense ``(hidden, grid cells)`` matrix) for a pooled plane, and
        ``D.T @ P`` over the raw ``h*w`` cells for a folded one — the
        front pool is linear, ``P`` its ``(grid cells, h*w)`` matrix.
        ``front`` and ``b1`` keep the layout's representative rows;
        ``W2.T`` is ``W_fc`` through the layout's summed final pool.
        Both matrices are stored transposed (the ``linear_forward``
        weight layout), which also makes ``W2.T[:row]`` a contiguous
        slice for layers narrower than ``max_row``.

        Memoised per ``extents`` on ``Parameter.version`` like the fold
        passes' caches: an optimizer step, ``load_state_dict`` or a
        checkpoint resume invalidates every ``extents`` at once.
        """
        conv, fc = self.net.layers[1], self.net.layers[5]
        versions = (
            conv.weight.version,
            conv.bias.version,
            fc.weight.version,
            fc.bias.version,
        )
        if versions != self._versions:
            self._operators = {}
            self._versions = versions
        operator = self._operators.get(extents)
        if operator is None:
            layout = self.layout(extents)
            backend = current_backend()
            channels = conv.out_channels
            positions = self._conv_hw[0] * self._conv_hw[1]
            dense_t = backend.linear_forward(
                conv.weight.data.reshape(channels, -1), self._taps, None
            ).reshape(channels * positions, -1)
            segments = [
                dense_t
                if extent is None
                else backend.linear_forward(
                    dense_t, _pool_matrix(extent, self.input_grid).T, None
                )
                for extent in extents
            ]
            front = segments[0] if len(segments) == 1 else np.hstack(segments)
            pool = layout.pool
            operator = (
                front[layout.columns],
                np.repeat(conv.bias.data, positions)[layout.columns],
                backend.linear_forward(
                    fc.weight.data.reshape(-1, pool.shape[0]), pool.T, None
                ).reshape(self.max_row, -1),
                fc.bias.data,
                layout,
            )
            self._operators[extents] = operator
        return operator

    def dense_forward(
        self,
        inputs: np.ndarray,
        extents: tuple[Optional[tuple[int, int]], ...],
        buckets: list[tuple[int, int, int]],
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(hidden, rows)`` for stacked samples laid out as
        ``extents`` say: the post-ReLU conv activations that
        :meth:`dense_backward` needs, one column per tie group, and per
        ``(begin, stop, width)`` bucket the first ``width`` FC columns of
        samples ``begin:stop``."""
        front, bias1, head_t, bias2, _ = self.operator(extents)
        backend = current_backend()
        hidden = backend.linear_forward(inputs, front, bias1)
        np.maximum(hidden, 0.0, out=hidden)
        rows = [
            backend.linear_forward(hidden[begin:stop], head_t[:width], bias2[:width])
            for begin, stop, width in buckets
        ]
        return hidden, rows

    def dense_backward(
        self,
        inputs: np.ndarray,
        extents: tuple[Optional[tuple[int, int]], ...],
        hidden: np.ndarray,
        buckets: list[tuple[int, int, int]],
        grad_rows: list[np.ndarray],
    ) -> None:
        """Accumulate the four parameter gradients of :meth:`dense_forward`.

        ``grad_rows`` is the loss gradient on each bucket's computed
        columns.  No input gradient is formed: nothing upstream of the
        predictor learns from it.  A folded segment's weight gradient
        goes back onto ``D`` through its pool matrix.  Everything runs
        at the tied width: tied columns have one derivative with respect
        to the conv weights, and a group's summed ``W2.T`` column
        carries the sum of their gradients, so ``g_D`` lives on the
        representative positions only and ``g_W_fc`` is the tied
        ``g_W2.T`` through the summed final pool.
        """
        _, _, head_t, _, layout = self.operator(extents)
        backend = current_backend()
        conv, fc = self.net.layers[1], self.net.layers[5]
        computed = max(width for _, _, width in buckets)
        grad_head_t = np.zeros((computed, head_t.shape[1]), dtype=head_t.dtype)
        grad_bias2 = np.zeros_like(fc.bias.data)
        grad_bias1 = np.zeros(hidden.shape[1], dtype=hidden.dtype)
        grad_front = np.zeros((hidden.shape[1], inputs.shape[1]), dtype=hidden.dtype)
        for (begin, stop, width), grad in zip(buckets, grad_rows):
            grad_hidden, grad_head, grad_bias = backend.linear_backward(
                hidden[begin:stop], grad, head_t[:width], with_bias=True
            )
            grad_head_t[:width] += grad_head
            grad_bias2[:width] += grad_bias
            grad_hidden *= hidden[begin:stop] > 0.0
            grad_bias1 += grad_hidden.sum(axis=0)
            # g_front.T = g_hidden.T @ inputs, written as a forward GEMM
            # because linear_backward would also form the unused g_inputs.
            grad_front += backend.linear_forward(
                grad_hidden.T, inputs[begin:stop].T, None
            )
        grid_cells = self.input_grid[0] * self.input_grid[1]
        grad_dense_t = np.zeros((hidden.shape[1], grid_cells), dtype=hidden.dtype)
        column = 0
        for extent in extents:
            cells = grid_cells if extent is None else extent[0] * extent[1]
            segment = grad_front[:, column : column + cells]
            column += cells
            if extent is not None:
                pool = _pool_matrix(extent, self.input_grid)
                segment = backend.linear_forward(segment, pool, None)
            grad_dense_t += segment
        channels = conv.out_channels
        conv.weight.accumulate_grad(
            backend.linear_forward(
                grad_dense_t.reshape(channels, -1), layout.taps.T, None
            ).reshape(conv.weight.shape)
        )
        conv.bias.accumulate_grad(grad_bias1.reshape(channels, -1).sum(axis=1))
        # Columns past the widest bucket were never computed: their
        # gradient stays 0.
        final = layout.pool
        grad_fc_weight = np.zeros_like(fc.weight.data)
        grad_fc_weight[:computed] = backend.linear_forward(
            grad_head_t.reshape(-1, final.shape[1]), final, None
        ).reshape(computed, -1)
        fc.weight.accumulate_grad(grad_fc_weight)
        fc.bias.accumulate_grad(grad_bias2)


class _Bucket:
    """The layers of one predictor call that share a row width:
    ``begin:stop`` on the stacked sample axis, and ``members`` —
    ``(position in the caller's list, start in the bucket's rows,
    units)`` per layer.  The arrays are the bucket's side of the
    per-layer bookkeeping: ``indices`` / ``starts`` its members' list
    positions and first rows (``np.add.reduceat`` over its rows gives
    per-layer sums), ``spread`` a list position per row, and ``factor``
    the MSE gradient's ``2 / (units * width)`` per row."""

    __slots__ = (
        "width", "begin", "stop", "members", "indices", "starts", "spread",
        "factor",
    )

    def __init__(
        self, width: int, begin: int, members: list[tuple[int, int, int]]
    ) -> None:
        units = [units for _, _, units in members]
        self.width, self.begin, self.stop = width, begin, begin + sum(units)
        self.members = members
        self.indices = np.array([index for index, _, _ in members])
        self.starts = np.array([start for _, start, _ in members])
        self.spread = np.repeat(self.indices, units)
        self.factor = np.repeat(
            [2.0 / (count * width) for count in units], units
        )[:, None].astype(np.float32)


class _Layout(NamedTuple):
    """A :meth:`PredictorNetwork.layout`: ``columns``, the hidden column
    each tie group keeps, in position order (all of them when nothing
    ties), and at that width ``taps``, the conv's basis im2col rows
    ``(position, cell)``, and ``pool``, the final pool ``(pooled cells,
    positions)`` with each group's columns summed."""

    columns: np.ndarray
    taps: np.ndarray
    pool: np.ndarray


class _Plan:
    """Everything about a predictor call that its layers and activation
    shapes fix (DESIGN.md §4), built once per layer list and reused
    while the shapes repeat — a fit calls with one signature.

    ``buckets``, one per distinct row width in first-seen order, and
    their ``spans``; ``extents``, one per distinct plane extent when the
    planes fold into the grid, else ``(None,)``; the stacked input's
    ``shape`` and whether it must start ``zeroed``; and per layer, in
    the caller's order, ``places``, its ``(rows, columns)`` slices of
    the stack, ``parts`` — ``(bucket position, start, stop, weight
    columns, has bias, weight shape)`` on its bucket's rows — and
    ``sizes``, its gradient cells.  ``divisor`` is the layers' one
    batch count, which a folded stack is divided by, or ``None`` when
    their batches differ.  Layers are held weakly (``refs``), like the
    scales, and no per-call buffer is kept.
    """

    __slots__ = (
        "refs", "shapes", "buckets", "spans", "extents", "folded", "shape",
        "zeroed", "places", "parts", "sizes", "divisor",
    )

    def __init__(
        self,
        layers: list[PredictableMixin],
        outputs: list[np.ndarray],
        rows: list[int],
        grid: tuple[int, int],
    ) -> None:
        if len({id(layer) for layer in layers}) != len(layers):
            raise ValueError("a layer appears twice in one predictor call")
        self.refs = [weakref.ref(layer) for layer in layers]
        self.shapes = [output.shape for output in outputs]
        units = [layer.output_units() for layer in layers]
        grouped: dict[int, list[int]] = {}
        for index, row in enumerate(rows):
            grouped.setdefault(row, []).append(index)
        self.buckets, top = [], 0
        for width, indices in grouped.items():
            starts = np.cumsum([0] + [units[index] for index in indices])
            members = [
                (index, int(start), units[index])
                for index, start in zip(indices, starts)
            ]
            self.buckets.append(_Bucket(width, top, members))
            top = self.buckets[-1].stop
        self.spans = [(b.begin, b.stop, b.width) for b in self.buckets]
        planes = [
            reorganize.reorganize_activations(layer, output).shape
            for layer, output in zip(layers, outputs)
        ]
        extents = [(height, width) for _, _, height, width in planes]
        # Each distinct extent's first column if the planes are folded.
        columns: dict[tuple[int, int], int] = {}
        total = 0
        for height, width in extents:
            if (height, width) not in columns:
                columns[height, width] = total
                total += height * width
        cells = grid[0] * grid[1]
        self.folded = total <= cells
        self.extents = tuple(columns) if self.folded else (None,)
        self.shape = (top, total if self.folded else cells)
        self.zeroed = self.folded and len(columns) > 1
        self.places = [None] * len(layers)
        self.parts = [None] * len(layers)
        for position, bucket in enumerate(self.buckets):
            for index, start, count in bucket.members:
                begin = bucket.begin + start
                if self.folded:
                    height, width = extents[index]
                    first = columns[height, width]
                    cut = slice(first, first + height * width)
                else:
                    cut = slice(0, cells)
                self.places[index] = (slice(begin, begin + count), cut)
                layer = layers[index]
                has_bias = layer.bias is not None
                self.parts[index] = (
                    position, start, start + count, rows[index] - has_bias, has_bias,
                    layer.weight.shape,
                )
        self.sizes = np.array(
            [count * row for count, row in zip(units, rows)], dtype=np.float64
        )
        counts = [
            output.size // int(np.prod(plane)) for output, plane in zip(outputs, planes)
        ]
        self.divisor = counts[0] if len(set(counts)) == 1 else None

    def matches(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> bool:
        """Whether this plan was built for exactly these layers (alive,
        by identity) and activation shapes."""
        return all(
            ref() is layer for ref, layer in zip(self.refs, layers)
        ) and self.shapes == [output.shape for output in outputs]


class _Stack(NamedTuple):
    """One predictor call laid out for the GEMMs by its ``plan``:
    ``inputs`` stacks the samples bucket by bucket, its columns one
    segment per entry of ``plan.extents`` (see
    :meth:`PredictorNetwork.operator`); ``rows`` is each bucket's FC
    output."""

    plan: _Plan
    inputs: np.ndarray
    hidden: np.ndarray
    rows: list[np.ndarray]


class GradientPredictor:
    """Predicts per-layer weight gradients from output activations.

    One instance serves every layer it is sized for (``for_model``).  The
    latency of its forward pass is the ``alpha`` of the paper's timeline
    analysis (§3.7); the accelerator model derives alpha from this same
    architecture via
    :func:`repro.accel.predictor_cost.predictor_layer_cost`.

    All four entry points — :meth:`predict`, :meth:`predict_many`,
    :meth:`train_step`, :meth:`train_step_many` — run the network's
    two-GEMM form (:meth:`PredictorNetwork.dense_forward` /
    ``dense_backward``); they differ only in how many layers share one
    call and, for training, one Adam step.  Targets are always learned
    in normalized units: each layer's running RMS scale
    (:data:`SCALE_MOMENTUM`) divides them in training and multiplies
    the predictions back, clipped to :data:`CLIP_SIGMA` scales.  Only
    ``max_row``, the Adam ``lr`` and the init ``rng`` are settable.
    """

    def __init__(
        self,
        max_row: int,
        lr: float = 1e-4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_row <= 0:
            raise ValueError(f"max_row must be positive, got {max_row}")
        self.network = PredictorNetwork(max_row, rng=rng)
        self.optimizer = nn.Adam(self.network.parameters(), lr=lr)
        # Weak-keyed on the layer itself: an id() key could be reused by
        # a new layer after a discarded model is collected and hand it a
        # stranger's scale.
        self._scales: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # First layer -> {layer ids: _Plan}, weak for the same reason.
        self._plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    @classmethod
    def for_model(
        cls, model: Module, all_layers: bool = False, **kwargs
    ) -> "GradientPredictor":
        """Size the FC layer for the largest layer the predictor serves
        (§3.6): the module table's :attr:`~repro.nn.graph.ModuleTable.served`
        layers, or every predictable one with ``all_layers`` (the
        paper's arm)."""
        table = trace(model)
        layers = table.predictable if all_layers else table.served
        if not layers:
            raise ValueError("model has no ADA-GP-predictable layers to serve")
        max_row = max(layer.gradient_size() for layer in layers)
        return cls(max_row=max_row, **kwargs)

    # ------------------------------------------------------------------
    def _scale_for(self, layer: PredictableMixin) -> float:
        return self._scales.get(layer, 1.0)

    def _update_scales(
        self, layers: list[PredictableMixin], rms: np.ndarray
    ) -> np.ndarray:
        """Fold this batch's target RMS into each layer's running scale
        (the first batch's RMS starts it); returns the new scales."""
        rms = np.where(rms == 0.0, 1e-12, rms)
        get = self._scales.get
        previous = [get(layer) for layer in layers]
        known = np.array([value is not None for value in previous])
        running = np.array([0.0 if value is None else value for value in previous])
        scales = np.where(
            known, SCALE_MOMENTUM * running + (1 - SCALE_MOMENTUM) * rms, rms
        )
        for layer, scale in zip(layers, scales.tolist()):
            self._scales[layer] = scale
        return scales

    def scales_state(self, layers: list[PredictableMixin]) -> dict[int, float]:
        """Per-layer RMS scales keyed by position in ``layers`` — the
        process-independent form checkpoints and replica syncs carry."""
        return {
            index: self._scales[layer]
            for index, layer in enumerate(layers)
            if layer in self._scales
        }

    def load_scales_state(
        self, layers: list[PredictableMixin], state: dict[int, float]
    ) -> None:
        """Inverse of :meth:`scales_state` (same layer order)."""
        self._scales = weakref.WeakKeyDictionary(
            {layers[index]: value for index, value in state.items()}
        )

    # ------------------------------------------------------------------
    def _check_capacity(self, layer: PredictableMixin) -> int:
        row = layer.gradient_size()
        if row > self.network.max_row:
            raise ValueError(
                f"layer gradient row {row} exceeds predictor capacity "
                f"{self.network.max_row}; for_model(model) sizes for the served "
                "layers only, a predictor for every predictable layer needs "
                "for_model(model, all_layers=True)"
            )
        return row

    def _plan(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> _Plan:
        """The call's :class:`_Plan`: the one kept for this layer list,
        rebuilt when the activation shapes (or a layer behind a reused
        ``id``) differ.  Kept weak-keyed on the first layer, so a
        discarded model's plans go with it."""
        if len(layers) != len(outputs):
            raise ValueError(
                f"got {len(layers)} layers but {len(outputs)} activations"
            )
        if not layers:
            raise ValueError("batched predictor call received no layers")
        plans = self._plans.get(layers[0])
        if plans is None:
            plans = self._plans[layers[0]] = {}
        key = tuple(map(id, layers))
        plan = plans.get(key)
        if plan is None or not plan.matches(layers, outputs):
            rows = [self._check_capacity(layer) for layer in layers]
            plan = plans[key] = _Plan(layers, outputs, rows, self.network.input_grid)
        return plan

    def _forward(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> _Stack:
        """The two-GEMM forward over all ``layers``' activations.

        Samples stack bucket by bucket, one bucket per row width, so
        each bucket's head GEMM runs over a contiguous range; the first
        GEMM runs once over the whole stack.  When the distinct plane
        extents together have no more cells than the grid, every plane
        is folded: it fills its extent's column segment with raw cells
        (zeros elsewhere) and skips the front pool.  If the layers share
        one batch count, C-contiguous float32 batches are summed
        straight into their slices and the whole buffer is divided once,
        which is ``ndarray.mean`` bit for bit; mixed batch counts, or
        another layout (which could make NumPy sum the batch axis
        pairwise), take the per-layer means.  Otherwise every plane is
        pooled to the grid, which keeps the first GEMM at grid width for
        every sample.
        """
        plan = self._plan(layers, outputs)
        # One float32 buffer for every layer's inputs.  Training
        # activations are float32 (tests/nn/test_dtype_discipline.py);
        # the buffer guards against float64 callers such as gradchecks,
        # whose operand would drag both GEMMs off the sgemm path.
        inputs = (np.zeros if plan.zeroed else np.empty)(plan.shape, dtype=np.float32)
        if plan.folded and plan.divisor is not None and all(
            output.dtype == np.float32 and output.flags.c_contiguous
            for output in outputs
        ):
            for layer, output, place in zip(layers, outputs, plan.places):
                reorganize.add_batch_sum(layer, output, inputs[place])
            np.true_divide(inputs, plan.divisor, out=inputs)
        else:
            backend = current_backend()
            grid = self.network.input_grid
            for layer, output, (rows, columns) in zip(layers, outputs, plan.places):
                plane = reorganize.reorganize_activations(layer, output)
                if not plan.folded:
                    plane = backend.adaptive_avg_pool2d(plane, grid)
                inputs[rows, columns] = plane.reshape(rows.stop - rows.start, -1)
        hidden, rows = self.network.dense_forward(inputs, plan.extents, plan.spans)
        return _Stack(plan, inputs, hidden, rows)

    def predict(
        self, layer: PredictableMixin, output: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Predicted (weight_grad, bias_grad) for ``layer``."""
        return self.predict_many([layer], [output])[0]

    def predict_many(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
        """:meth:`predict` for many layers in one forward.

        Numerically equivalent to calling :meth:`predict` per layer
        (samples are independent): one first GEMM and one head GEMM per
        bucket instead of a pair per layer.  Each bucket's rows are put
        in gradient units in place — times the layer's scale, clipped
        to :data:`CLIP_SIGMA` scales, both as float32 factors — and
        every layer's ``(weight_grad, bias_grad)`` are views of them.
        """
        stack = self._forward(layers, outputs)
        plan = stack.plan
        scales = np.array([self._scale_for(layer) for layer in layers])
        factors = scales.astype(np.float32)
        bounds = (CLIP_SIGMA * scales).astype(np.float32)
        for bucket, rows in zip(plan.buckets, stack.rows):
            rows *= factors[bucket.spread][:, None]
            # The clip as a maximum and a minimum: 2.5x faster than
            # np.clip with array bounds, and the same values unless a
            # bound rounds to zero (a scale below 1e-45), where the sign
            # of a zero can differ.
            bound = bounds[bucket.spread][:, None]
            np.maximum(rows, -bound, out=rows)
            np.minimum(rows, bound, out=rows)
        results = []
        for position, start, stop, columns, has_bias, shape in plan.parts:
            rows = stack.rows[position]
            results.append(
                (
                    rows[start:stop, :columns].reshape(shape),
                    rows[start:stop, columns] if has_bias else None,
                )
            )
        return results

    # ------------------------------------------------------------------
    def train_step(
        self,
        layer: PredictableMixin,
        output: np.ndarray,
        weight_grad: np.ndarray,
        bias_grad: Optional[np.ndarray],
        apply_update: bool = True,
    ) -> tuple[float, float]:
        """One predictor update against true gradients.

        Returns ``(mse, mape)`` of the prediction *before* the update,
        in raw gradient units — these feed the paper's Fig 15 curves.
        ``apply_update=False`` accumulates gradients without stepping
        the optimizer (used by the equivalence tests).
        """
        return self._train(
            [layer], [output], [weight_grad], [bias_grad], apply_update
        )[0]

    def train_step_many(
        self,
        layers: list[PredictableMixin],
        outputs: list[np.ndarray],
        weight_grads: list[np.ndarray],
        bias_grads: list[Optional[np.ndarray]],
        apply_update: bool = True,
    ) -> list[tuple[float, float]]:
        """:meth:`train_step` for all layers of a batch: one forward,
        one backward and one Adam step instead of ``len(layers)``.

        The backward gradient is the per-layer MSE gradients laid into
        their slices, so the accumulated parameter gradient equals the
        *sum* of the per-layer gradients at the current weights (see
        ``tests/core/test_predictor_batched.py``).  The single combined
        Adam step replaces ``len(layers)`` sequential steps — same
        gradient signal, one optimizer trajectory; Fig-15 metrics are
        still reported per layer, *before* the update.
        """
        return self._train(layers, outputs, weight_grads, bias_grads, apply_update)

    def _train(
        self,
        layers: list[PredictableMixin],
        outputs: list[np.ndarray],
        weight_grads: list[np.ndarray],
        bias_grads: list[Optional[np.ndarray]],
        apply_update: bool,
    ) -> list[tuple[float, float]]:
        stack = self._forward(layers, outputs)
        plan = stack.plan
        # Per layer, in the caller's order: the float64 sums of target
        # squares, |error|, squared error and |target|.  Every sum runs
        # in float64: fp32 would overflow on transiently exploding
        # gradients.
        sums = np.zeros((4, len(layers)))
        targets = []
        for bucket, rows in zip(plan.buckets, stack.rows):
            # Each bucket's target rows laid out like its FC output, in
            # float64; every member's row is the bucket's width, so each
            # column is written.
            target = np.empty(rows.shape)
            for index, _, _ in bucket.members:
                _, start, stop, columns, has_bias, _ = plan.parts[index]
                target[start:stop, :columns] = weight_grads[index].reshape(
                    stop - start, -1
                )
                if has_bias:
                    if bias_grads[index] is None:
                        raise ValueError("layer has a bias but no bias gradient given")
                    target[start:stop, columns] = bias_grads[index].reshape(
                        stop - start
                    )
            sums[0, bucket.indices] = np.add.reduceat(
                np.square(target).sum(axis=1), bucket.starts
            )
            targets.append(target)
        scales = self._update_scales(layers, np.sqrt(sums[0] / plan.sizes))
        for bucket, rows, target in zip(plan.buckets, stack.rows, targets):
            scale = scales[bucket.spread][:, None]
            # (mse, mape) of the prediction before the update, in raw
            # gradient units; mape as
            # :func:`~repro.core.metrics.mean_absolute_percentage_error`.
            error = rows * scale
            error -= target
            absolute = np.abs(error, out=error).sum(axis=1)
            squared = np.square(error, out=error).sum(axis=1)
            sums[1:3, bucket.indices] = np.add.reduceat(
                np.stack([absolute, squared]), bucket.starts, axis=1
            )
            # ``rows`` turns into the MSE gradient on the normalized
            # targets in place; ``target`` is read last, as |target|.
            rows -= np.divide(target, scale, out=error)
            rows *= bucket.factor
            sums[3, bucket.indices] = np.add.reduceat(
                np.abs(target, out=target).sum(axis=1), bucket.starts
            )
        mse = sums[2] / plan.sizes
        mape = sums[1] / plan.sizes / (sums[3] / plan.sizes + MAPE_EPS) * 100.0
        # The optimizer's parameter list: ``network.zero_grad()`` would
        # walk the network's module tree for the same four parameters.
        self.optimizer.zero_grad()
        self.network.dense_backward(
            stack.inputs, plan.extents, stack.hidden, plan.spans, stack.rows
        )
        if apply_update:
            self.optimizer.step()
        return list(zip(mse.tolist(), mape.tolist()))
