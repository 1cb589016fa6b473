"""The ADA-GP predictor model.

A single small network shared by *all* layers of the DNN (paper
contribution 2).  Following §3.6, it is a stack of pooling layers and a
small Conv2d, followed by one fully connected layer sized for the
largest layer of the DNN model; smaller layers mask / truncate the FC
output to their own gradient-row size.

Input  : reorganized activations ``(out_ch, 1, H, W)``
Output : gradient rows ``(out_ch, max_row)`` masked to ``(out_ch, row)``

The paper trains the predictor with Adam (lr 1e-4) on the true
backpropagated gradients during Warm-Up and Phase BP.  Because raw
gradient magnitudes vary by orders of magnitude across layers and over
training, the predictor can optionally learn *normalized* targets
(per-layer running RMS scale, re-applied at prediction time); the paper
does not specify this detail and it defaults to on for robustness
(DESIGN.md §2).
"""

from __future__ import annotations

import functools
import weakref
from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.backend import current_backend
from ..nn.module import Module, PredictableMixin
from . import reorganize


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
    """Pool -> Conv -> ReLU -> Pool -> Flatten -> FC (paper Fig 6).

    The layered :meth:`forward` / :meth:`backward` are the parameter
    container and the test oracle.  :class:`GradientPredictor` executes
    the same function as two GEMMs (DESIGN.md §4): the network has one
    non-linearity, so on the fixed ``input_grid`` it is
    ``relu(pooled @ D + b1) @ W2 + b2`` with ``D`` the convolution
    written as a dense matrix and ``W2`` the FC with the final pool
    absorbed — see :meth:`dense_operator`.  A plane with no more cells
    than the grid skips the front pool: it is folded into ``D`` as well
    (:meth:`front_operator`).
    """

    def __init__(
        self,
        max_row: int,
        pool_size: int = 8,
        conv_channels: int = 4,
        final_pool: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.max_row = max_row
        self.input_grid = (pool_size, pool_size)
        self.net = nn.Sequential(
            nn.AdaptiveAvgPool2d(pool_size),
            nn.Conv2d(1, conv_channels, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.AdaptiveAvgPool2d(final_pool),
            nn.Flatten(),
            nn.Linear(conv_channels * final_pool * final_pool, max_row, rng=rng),
        )
        # The conv's im2col over the one-hot images of the input grid:
        # row (position l, grid cell p), column tap k.  Constant, so the
        # dense conv matrix is one small GEMM with the flat conv weight
        # and its backward another — no im2col/col2im per call.
        conv = self.net.layers[1]
        cells = pool_size * pool_size
        basis = np.eye(cells, dtype=np.float32).reshape(cells, 1, pool_size, pool_size)
        cols, out_h, out_w = F.im2col(
            basis, conv.kernel_size, conv.stride, conv.padding
        )
        self._conv_hw = (out_h, out_w)
        self._taps = np.ascontiguousarray(cols.transpose(2, 0, 1)).reshape(
            out_h * out_w * cells, -1
        )
        self._dense_versions: Optional[tuple[int, ...]] = None
        self._dense: Optional[tuple[np.ndarray, ...]] = None
        self._fronts: dict[tuple, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)

    # ------------------------------------------------------------------
    # The two-GEMM form.  Samples are independent, so the inputs of
    # *different* DNN layers stack along the sample axis: pooled onto
    # ``input_grid``, or as raw planes in per-extent column segments
    # (:meth:`front_operator`).
    # ------------------------------------------------------------------
    def dense_operator(self) -> tuple[np.ndarray, ...]:
        """``(D.T, b1, W2.T, b2)``, rebuilt when a parameter version moved.

        Memoised on ``Parameter.version`` like the fold passes' caches,
        so an optimizer step, ``load_state_dict`` or a checkpoint resume
        invalidates it — and with it every :meth:`front_operator`.  Both
        matrices are stored transposed (the ``linear_forward`` weight
        layout), which also makes ``W2.T[:row]`` a contiguous slice for
        layers narrower than ``max_row``.
        """
        conv, fc = self.net.layers[1], self.net.layers[5]
        versions = (
            conv.weight.version,
            conv.bias.version,
            fc.weight.version,
            fc.bias.version,
        )
        if versions != self._dense_versions:
            backend = current_backend()
            channels = conv.out_channels
            positions = self._conv_hw[0] * self._conv_hw[1]
            dense_t = backend.linear_forward(
                conv.weight.data.reshape(channels, -1), self._taps, None
            ).reshape(channels * positions, -1)
            # W2.T = W_fc @ Q.T: the final pool's transpose spreads each
            # FC weight uniformly over its window — the pool backward.
            final = self._final_pool()
            head_t = backend.linear_forward(
                fc.weight.data.reshape(-1, final.shape[0]), final.T, None
            ).reshape(self.max_row, -1)
            self._dense = (
                dense_t,
                np.repeat(conv.bias.data, positions),
                head_t,
                fc.bias.data,
            )
            self._fronts = {}
            self._dense_versions = versions
        return self._dense

    def front_operator(
        self, extents: tuple[Optional[tuple[int, int]], ...]
    ) -> np.ndarray:
        """The first GEMM's weight for inputs laid out as one column
        segment per entry of ``extents``.

        ``None`` is a plane pooled to the grid first: its segment is
        ``D.T`` over the grid cells.  ``(h, w)`` is a plane with no more
        cells than the grid, folded into the operator: the front pool is
        linear, so its segment is ``D.T @ P`` over the raw ``h*w``
        cells, with ``P`` the ``(grid cells, h*w)`` pool matrix — never
        wider than ``D.T``.  Memoised per ``extents`` next to
        :meth:`dense_operator`, on the same version key.
        """
        dense_t = self.dense_operator()[0]
        front = self._fronts.get(extents)
        if front is None:
            backend = current_backend()
            segments = [
                dense_t
                if extent is None
                else backend.linear_forward(
                    dense_t, _pool_matrix(extent, self.input_grid).T, None
                )
                for extent in extents
            ]
            front = segments[0] if len(segments) == 1 else np.hstack(segments)
            self._fronts[extents] = front
        return front

    def _final_pool(self) -> np.ndarray:
        """``Q``, the final pool as a ``(pooled cells, conv cells)`` matrix."""
        return _pool_matrix(self._conv_hw, self.net.layers[3].output_size)

    def dense_forward(
        self,
        inputs: np.ndarray,
        extents: tuple[Optional[tuple[int, int]], ...],
        buckets: list[tuple[int, int, int]],
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(hidden, rows)`` for stacked samples laid out as
        :meth:`front_operator`'s ``extents`` say: the post-ReLU conv
        activations that :meth:`dense_backward` needs, and per
        ``(begin, stop, width)`` bucket the first ``width`` FC columns
        of samples ``begin:stop``."""
        _, bias1, head_t, bias2 = self.dense_operator()
        backend = current_backend()
        hidden = backend.linear_forward(inputs, self.front_operator(extents), bias1)
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
        goes back onto ``D`` through its pool matrix.
        """
        _, _, head_t, _ = self.dense_operator()
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
                grad_dense_t.reshape(channels, -1), self._taps.T, None
            ).reshape(conv.weight.shape)
        )
        conv.bias.accumulate_grad(grad_bias1.reshape(channels, -1).sum(axis=1))
        # Columns past the widest bucket were never computed: their
        # gradient stays 0.
        final = self._final_pool()
        grad_fc_weight = np.zeros_like(fc.weight.data)
        grad_fc_weight[:computed] = backend.linear_forward(
            grad_head_t.reshape(-1, final.shape[1]), final, None
        ).reshape(computed, -1)
        fc.weight.accumulate_grad(grad_fc_weight)
        fc.bias.accumulate_grad(grad_bias2)


#: What one more head bucket costs, in head cells (samples x computed
#: columns): its fixed share of GEMM calls, of the weight-gradient GEMM
#: output and of the float64 bookkeeping passes, against the per-cell
#: work a narrower head saves.
_BUCKET_CELLS = 4096


def _head_widths(layout: list[tuple[int, int]]) -> dict[int, int]:
    """Row width -> the head width its layers compute, for a stack of
    ``(units, row)`` layers.

    The distinct widths, sorted, are split into contiguous buckets that
    each compute their widest row.  The split minimises the head cells
    computed plus :data:`_BUCKET_CELLS` per bucket, so a bucket is split
    off only when the columns it stops padding outweigh what one more
    bucket costs.
    """
    units_at: dict[int, int] = {}
    for units, row in layout:
        units_at[row] = units_at.get(row, 0) + units
    widths = sorted(units_at)
    # best[end]: cheapest split of widths[:end]; cut[end]: where its
    # last bucket starts.
    best = [0.0] + [float("inf")] * len(widths)
    cut = [0] * (len(widths) + 1)
    for end in range(1, len(widths) + 1):
        samples = 0
        for begin in range(end - 1, -1, -1):
            samples += units_at[widths[begin]]
            cost = best[begin] + samples * widths[end - 1] + _BUCKET_CELLS
            if cost < best[end]:
                best[end], cut[end] = cost, begin
    head_width = {}
    end = len(widths)
    while end:
        for width in widths[cut[end] : end]:
            head_width[width] = widths[end - 1]
        end = cut[end]
    return head_width


class _Bucket:
    """The layers of one predictor call that compute the same head
    width: ``begin:stop`` on the stacked sample axis, ``rows`` their FC
    output, and ``members`` — ``(position in the caller's list, start
    in rows, units, row)`` per layer."""

    __slots__ = ("width", "begin", "stop", "members", "samples", "rows")

    def __init__(self, width: int) -> None:
        self.width = width
        self.members: list[tuple[int, int, int, int]] = []
        self.samples = 0

    def add(self, index: int, units: int, row: int) -> None:
        self.members.append((index, self.samples, units, row))
        self.samples += units

    @property
    def indices(self) -> list[int]:
        return [index for index, _, _, _ in self.members]

    @property
    def starts(self) -> list[int]:
        return [start for _, start, _, _ in self.members]

    def spread(self, per_layer: np.ndarray) -> np.ndarray:
        """A per-layer value (caller's order) repeated over the bucket's
        samples, as a column."""
        units = [units for _, _, units, _ in self.members]
        return np.repeat(per_layer[self.indices], units)[:, None]


class _Stack:
    """One predictor call laid out for the GEMMs: ``inputs`` stacks the
    samples bucket by bucket, its columns one segment per entry of
    ``extents`` (see :meth:`PredictorNetwork.front_operator`)."""

    __slots__ = ("extents", "buckets", "inputs", "hidden")

    def spans(self) -> list[tuple[int, int, int]]:
        return [(bucket.begin, bucket.stop, bucket.width) for bucket in self.buckets]


class GradientPredictor:
    """Predicts per-layer weight gradients from output activations.

    One instance serves every predictable layer of the model.  The
    latency of its forward pass is the ``alpha`` of the paper's timeline
    analysis (§3.7); the accelerator model derives alpha from this same
    architecture via
    :func:`repro.accel.predictor_cost.predictor_layer_cost`.

    All four entry points — :meth:`predict`, :meth:`predict_many`,
    :meth:`train_step`, :meth:`train_step_many` — run the network's
    two-GEMM form (:meth:`PredictorNetwork.dense_forward` /
    ``dense_backward``); they differ only in how many layers share one
    call and, for training, one Adam step.
    """

    def __init__(
        self,
        max_row: int,
        lr: float = 1e-4,
        normalize_targets: bool = True,
        scale_momentum: float = 0.9,
        clip_sigma: float = 3.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_row <= 0:
            raise ValueError(f"max_row must be positive, got {max_row}")
        self.network = PredictorNetwork(max_row, rng=rng)
        self.optimizer = nn.Adam(self.network.parameters(), lr=lr)
        self.normalize_targets = normalize_targets
        self.scale_momentum = scale_momentum
        # Predicted rows are clipped to +-clip_sigma * (per-layer running
        # RMS): the accelerator's update datapath saturates rather than
        # overflowing, and the clip breaks the "noisy prediction -> larger
        # gradients -> larger scale" feedback loop in long fp32 runs.
        self.clip_sigma = clip_sigma
        # Weak-keyed on the layer itself: an id() key could be reused by
        # a new layer after a discarded model is collected and hand it a
        # stranger's scale.
        self._scales: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    @classmethod
    def for_model(cls, model: Module, **kwargs) -> "GradientPredictor":
        """Size the FC layer for the largest layer of ``model`` (§3.6)."""
        layers = nn.predictable_layers(model)
        if not layers:
            raise ValueError("model has no ADA-GP-predictable layers")
        max_row = max(layer.gradient_size() for layer in layers)
        return cls(max_row=max_row, **kwargs)

    # ------------------------------------------------------------------
    def _scale_for(self, layer: PredictableMixin) -> float:
        return self._scales.get(layer, 1.0)

    def _update_scale(self, layer: PredictableMixin, rms: float) -> None:
        """Fold this batch's target RMS into the layer's running scale."""
        rms = rms or 1e-12
        previous = self._scales.get(layer)
        if previous is None:
            self._scales[layer] = rms
        else:
            self._scales[layer] = (
                self.scale_momentum * previous + (1 - self.scale_momentum) * rms
            )

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
                f"{self.network.max_row}; size the predictor with for_model()"
            )
        return row

    def _forward(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> _Stack:
        """The two-GEMM forward over all ``layers``' activations.

        Samples stack bucket by bucket (:func:`_head_widths`), so each
        bucket's head GEMM runs over a contiguous range; the first GEMM
        runs once over the whole stack.  When the distinct plane
        extents together have no more cells than the grid, every plane
        is folded: it fills its extent's column segment with raw cells
        (zeros elsewhere) and skips the front pool.  Otherwise every
        plane is pooled to the grid, which keeps the first GEMM at grid
        width for every sample.
        """
        if len(layers) != len(outputs):
            raise ValueError(
                f"got {len(layers)} layers but {len(outputs)} activations"
            )
        if not layers:
            raise ValueError("batched predictor call received no layers")
        grid = self.network.input_grid
        cells = grid[0] * grid[1]
        planes = [
            reorganize.reorganize_activations(layer, output)
            for layer, output in zip(layers, outputs)
        ]
        layout = [
            (layer.output_units(), self._check_capacity(layer)) for layer in layers
        ]
        head_width = _head_widths(layout)
        buckets: dict[int, _Bucket] = {}
        for index, (units, row) in enumerate(layout):
            width = head_width[row]
            if width not in buckets:
                buckets[width] = _Bucket(width)
            buckets[width].add(index, units, row)
        stack = _Stack()
        stack.buckets = list(buckets.values())
        samples = 0
        for bucket in stack.buckets:
            bucket.begin, samples = samples, samples + bucket.samples
            bucket.stop = samples
        # Each distinct extent's first column if the planes are folded.
        columns: dict[tuple[int, int], int] = {}
        width = 0
        for plane in planes:
            extent = plane.shape[2:]
            if extent not in columns:
                columns[extent] = width
                width += extent[0] * extent[1]
        folded = width <= cells
        stack.extents = tuple(columns) if folded else (None,)
        # One float32 buffer for every layer's inputs.  Training
        # activations are float32 (tests/nn/test_dtype_discipline.py);
        # the buffer guards against float64 callers such as gradchecks,
        # whose operand would drag both GEMMs off the sgemm path.
        shape = (samples, width if folded else cells)
        if folded and len(columns) > 1:
            stack.inputs = np.zeros(shape, dtype=np.float32)
        else:
            stack.inputs = np.empty(shape, dtype=np.float32)
        backend = current_backend()
        for bucket in stack.buckets:
            for index, start, units, _ in bucket.members:
                plane, top = planes[index], bucket.begin + start
                if folded:
                    first = columns[plane.shape[2:]]
                    stop = first + plane.shape[2] * plane.shape[3]
                    stack.inputs[top : top + units, first:stop] = plane.reshape(
                        units, -1
                    )
                else:
                    stack.inputs[top : top + units] = backend.adaptive_avg_pool2d(
                        plane, grid
                    ).reshape(units, -1)
        stack.hidden, rows = self.network.dense_forward(
            stack.inputs, stack.extents, stack.spans()
        )
        for bucket, bucket_rows in zip(stack.buckets, rows):
            bucket.rows = bucket_rows
        return stack

    def _unpack(
        self, layer: PredictableMixin, rows: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """A layer's ``(units, row)`` network rows as ``(weight_grad,
        bias_grad)`` in gradient units: denormalised into one fresh array
        and clipped in place, the two gradients being views of it."""
        if not self.normalize_targets:
            return reorganize.unflatten_gradients(layer, rows)
        scale = float(self._scale_for(layer))
        bound = self.clip_sigma * scale
        rows = np.multiply(rows, scale)
        rows.clip(-bound, bound, out=rows)
        if layer.bias is None:
            return rows.reshape(layer.weight.shape), None
        return rows[:, :-1].reshape(layer.weight.shape), rows[:, -1]

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
        bucket instead of a pair per layer.
        """
        results: list = [None] * len(layers)
        for bucket in self._forward(layers, outputs).buckets:
            for index, start, units, row in bucket.members:
                results[index] = self._unpack(
                    layers[index], bucket.rows[start : start + units, :row]
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
        # Per layer, in the caller's order: the float64 sums of target
        # squares, |error|, squared error and |target|.  Every sum runs
        # in float64: fp32 would overflow on transiently exploding
        # gradients.
        sums = np.zeros((4, len(layers)))
        sizes = np.empty(len(layers))
        targets = []
        for bucket in stack.buckets:
            # Each bucket's target rows laid out like its FC output, in
            # float64.  Columns past a narrower layer's row are zeroed in
            # both, so they add exact zeros to every sum and to the loss
            # gradient.
            target = np.empty(bucket.rows.shape)
            for index, start, units, row in bucket.members:
                layer, stop = layers[index], start + units
                columns = row - (layer.bias is not None)
                target[start:stop, :columns] = weight_grads[index].reshape(units, -1)
                if layer.bias is not None:
                    if bias_grads[index] is None:
                        raise ValueError("layer has a bias but no bias gradient given")
                    target[start:stop, columns] = bias_grads[index].reshape(units)
                target[start:stop, row:] = 0.0
                bucket.rows[start:stop, row:] = 0.0
                sizes[index] = units * row
            sums[0, bucket.indices] = np.add.reduceat(
                np.square(target).sum(axis=1), bucket.starts
            )
            targets.append(target)
        scales = np.ones(len(layers))
        if self.normalize_targets:
            for layer, rms in zip(layers, np.sqrt(sums[0] / sizes)):
                self._update_scale(layer, float(rms))
            scales = np.array([self._scale_for(layer) for layer in layers])
        for bucket, target in zip(stack.buckets, targets):
            scale = bucket.spread(scales)
            # (mse, mape) of the prediction before the update, in raw
            # gradient units; mape as :func:`mean_absolute_percentage_error`.
            error = bucket.rows * scale
            error -= target
            absolute = np.abs(error, out=error).sum(axis=1)
            squared = np.square(error, out=error).sum(axis=1)
            sums[1:3, bucket.indices] = np.add.reduceat(
                np.stack([absolute, squared]), bucket.starts, axis=1
            )
            # ``rows`` turns into the MSE gradient on the normalized
            # targets in place; ``target`` is read last, as |target|.
            bucket.rows -= np.divide(target, scale, out=error)
            bucket.rows *= bucket.spread(2.0 / sizes).astype(np.float32)
            sums[3, bucket.indices] = np.add.reduceat(
                np.abs(target, out=target).sum(axis=1), bucket.starts
            )
        mse = sums[2] / sizes
        mape = sums[1] / sizes / (sums[3] / sizes + 1e-8) * 100.0
        self.network.zero_grad()
        self.network.dense_backward(
            stack.inputs,
            stack.extents,
            stack.hidden,
            stack.spans(),
            [bucket.rows for bucket in stack.buckets],
        )
        if apply_update:
            self.optimizer.step()
        return list(zip(mse.tolist(), mape.tolist()))


def mean_absolute_percentage_error(
    actual: np.ndarray, predicted: np.ndarray, eps: float = 1e-8
) -> float:
    """MAPE as defined in paper Eq. 1, with an epsilon guard.

    Expressed as a percentage of the mean absolute actual value to avoid
    division blow-ups on near-zero gradients (the paper plots values in
    the 0-2% range).
    """
    denom = float(np.mean(np.abs(actual))) + eps
    return float(np.mean(np.abs(actual - predicted)) / denom * 100.0)
