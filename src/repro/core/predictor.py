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

import weakref
from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.backend import current_backend
from ..nn.module import Module, PredictableMixin
from . import reorganize


class PredictorNetwork(Module):
    """Pool -> Conv -> ReLU -> Pool -> Flatten -> FC (paper Fig 6).

    The layered :meth:`forward` / :meth:`backward` are the parameter
    container and the test oracle.  :class:`GradientPredictor` executes
    the same function as two GEMMs (DESIGN.md §4): the network has one
    non-linearity, so on the fixed ``input_grid`` it is
    ``relu(pooled @ D + b1) @ W2 + b2`` with ``D`` the convolution
    written as a dense matrix and ``W2`` the FC with the final pool
    absorbed — see :meth:`dense_operator`.
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)

    # ------------------------------------------------------------------
    # The two-GEMM form.  Samples are independent and the front pool
    # maps every layer's activations onto ``input_grid``, so pooled
    # inputs of *different* DNN layers stack along the sample axis.
    # ------------------------------------------------------------------
    def dense_operator(self) -> tuple[np.ndarray, ...]:
        """``(D.T, b1, W2.T, b2)``, rebuilt when a parameter version moved.

        Memoised on ``Parameter.version`` like the fold passes' caches,
        so an optimizer step, ``load_state_dict`` or a checkpoint resume
        invalidates it.  Both matrices are stored transposed (the
        ``linear_forward`` weight layout), which also makes
        ``W2.T[:row]`` a contiguous slice for layers narrower than
        ``max_row``.
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
            pooled_hw = self.net.layers[3].output_size
            head_t = backend.adaptive_avg_pool2d_backward(
                fc.weight.data.reshape(self.max_row, channels, *pooled_hw),
                (self.max_row, channels, *self._conv_hw),
            ).reshape(self.max_row, -1)
            self._dense = (
                dense_t,
                np.repeat(conv.bias.data, positions),
                head_t,
                fc.bias.data,
            )
            self._dense_versions = versions
        return self._dense

    def dense_forward(
        self, pooled: np.ndarray, row: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, hidden)`` for pooled samples ``(N, grid cells)``: the
        first ``row`` FC columns and the post-ReLU conv activations that
        :meth:`dense_backward` needs."""
        dense_t, bias1, head_t, bias2 = self.dense_operator()
        backend = current_backend()
        hidden = backend.linear_forward(pooled, dense_t, bias1)
        np.maximum(hidden, 0.0, out=hidden)
        return backend.linear_forward(hidden, head_t[:row], bias2[:row]), hidden

    def dense_backward(
        self, pooled: np.ndarray, hidden: np.ndarray, grad_rows: np.ndarray
    ) -> None:
        """Accumulate the four parameter gradients of :meth:`dense_forward`.

        ``grad_rows`` is the loss gradient on the ``row`` computed
        columns.  No input gradient is formed: nothing upstream of the
        predictor learns from it.
        """
        dense_t, _, head_t, _ = self.dense_operator()
        backend = current_backend()
        conv, fc = self.net.layers[1], self.net.layers[5]
        row = grad_rows.shape[1]
        grad_hidden, grad_head_t, grad_bias2 = backend.linear_backward(
            hidden, grad_rows, head_t[:row], with_bias=True
        )
        grad_hidden *= hidden > 0.0
        # g_D.T = g_hidden.T @ pooled, written as a forward GEMM because
        # linear_backward would also form the unused g_pooled.
        grad_dense_t = backend.linear_forward(grad_hidden.T, pooled.T, None)
        channels = conv.out_channels
        conv.weight.accumulate_grad(
            backend.linear_forward(
                grad_dense_t.reshape(channels, -1), self._taps.T, None
            ).reshape(conv.weight.shape)
        )
        conv.bias.accumulate_grad(
            grad_hidden.sum(axis=0).reshape(channels, -1).sum(axis=1)
        )
        # Columns past ``row`` were never computed: their gradient is 0.
        grad_fc_weight = np.zeros_like(fc.weight.data)
        grad_fc_weight[:row] = backend.adaptive_avg_pool2d(
            grad_head_t.reshape(row, channels, *self._conv_hw),
            self.net.layers[3].output_size,
        ).reshape(row, -1)
        fc.weight.accumulate_grad(grad_fc_weight)
        grad_fc_bias = np.zeros_like(fc.bias.data)
        grad_fc_bias[:row] = grad_bias2
        fc.bias.accumulate_grad(grad_fc_bias)


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

    def _denormalize_rows(
        self, layer: PredictableMixin, rows: np.ndarray
    ) -> np.ndarray:
        if not self.normalize_targets:
            return rows
        scale = self._scale_for(layer)
        bound = self.clip_sigma * scale
        return np.clip(rows * scale, -bound, bound)

    def _forward(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
        """One two-GEMM forward over all ``layers``' pooled activations.

        Returns ``(rows, pooled, hidden, slices)``: the stacked FC
        output ``(sum(units_i), max(row_i))``, the two arrays the
        backward needs, and per-layer ``(start, units, row)`` slices
        into the sample axis.
        """
        if len(layers) != len(outputs):
            raise ValueError(
                f"got {len(layers)} layers but {len(outputs)} activations"
            )
        if not layers:
            raise ValueError("batched predictor call received no layers")
        slices: list[tuple[int, int, int]] = []
        start = 0
        for layer in layers:
            units = layer.output_units()
            slices.append((start, units, self._check_capacity(layer)))
            start += units
        grid = self.network.input_grid
        backend = current_backend()
        # One float32 buffer for every layer's pooled samples.  Training
        # activations are float32 (tests/nn/test_dtype_discipline.py);
        # the buffer guards against float64 callers such as gradchecks,
        # whose operand would drag both GEMMs off the sgemm path.
        pooled = np.empty((start, grid[0] * grid[1]), dtype=np.float32)
        for layer, output, (begin, units, _) in zip(layers, outputs, slices):
            reorganized = reorganize.reorganize_activations(layer, output)
            pooled[begin : begin + units] = backend.adaptive_avg_pool2d(
                reorganized, grid
            ).reshape(units, -1)
        rows, hidden = self.network.dense_forward(
            pooled, max(row for _, _, row in slices)
        )
        return rows, pooled, hidden, slices

    def predict_rows(self, layer: PredictableMixin, output: np.ndarray) -> np.ndarray:
        """Raw masked prediction rows for a layer, in gradient units."""
        rows, _, _, _ = self._forward([layer], [output])
        return self._denormalize_rows(layer, rows)

    def predict(
        self, layer: PredictableMixin, output: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Predicted (weight_grad, bias_grad) for ``layer``."""
        rows = self.predict_rows(layer, output)
        return reorganize.unflatten_gradients(layer, rows)

    def predict_many(
        self, layers: list[PredictableMixin], outputs: list[np.ndarray]
    ) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
        """:meth:`predict` for many layers in one forward.

        Numerically equivalent to calling :meth:`predict` per layer
        (samples are independent): one pair of GEMMs instead of
        ``len(layers)``.
        """
        full, _, _, slices = self._forward(layers, outputs)
        results = []
        for layer, (start, units, row) in zip(layers, slices):
            rows = self._denormalize_rows(layer, full[start : start + units, :row])
            results.append(reorganize.unflatten_gradients(layer, rows))
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
        full, pooled, hidden, slices = self._forward(layers, outputs)
        # All layers' target rows in one zero-padded float32 buffer laid
        # out like ``full`` (whatever ``full`` holds to the right of a
        # narrower layer is zeroed too), so scale, metrics and loss
        # gradient are one pass each over the stack instead of one per
        # layer: padding adds exact zeros to every sum.
        targets = np.zeros_like(full)
        for layer, weight_grad, bias_grad, (start, units, row) in zip(
            layers, weight_grads, bias_grads, slices
        ):
            targets[start : start + units, :row] = reorganize.flatten_gradients(
                layer, weight_grad, bias_grad
            )
            full[start : start + units, row:] = 0.0
        starts = [start for start, _, _ in slices]
        samples = [units for _, units, _ in slices]
        sizes = np.array([units * row for _, units, row in slices], dtype=np.float64)

        def layer_means(stacked: np.ndarray) -> np.ndarray:
            per_sample = stacked.sum(axis=1, dtype=np.float64)
            return np.add.reduceat(per_sample, starts) / sizes

        # Every sum below runs in float64, through one work buffer: fp32
        # would overflow on transiently exploding gradients.
        work = np.empty(full.shape, dtype=np.float64)
        scales = np.ones(len(layers))
        if self.normalize_targets:
            np.multiply(targets, targets, out=work, dtype=np.float64)
            for layer, rms in zip(layers, np.sqrt(layer_means(work))):
                self._update_scale(layer, float(rms))
            scales = np.array([self._scale_for(layer) for layer in layers])
        sample_scale = np.repeat(scales, samples)[:, None]
        # (mse, mape) of the prediction before the update, in raw
        # gradient units; mape as :func:`mean_absolute_percentage_error`.
        np.multiply(full, sample_scale, out=work)
        work -= targets
        np.abs(work, out=work)
        mape = layer_means(work) / (layer_means(np.abs(targets)) + 1e-8) * 100.0
        np.square(work, out=work)
        mse = layer_means(work)
        # ``full`` turns into the MSE gradient on the normalized targets
        # in place.
        targets /= sample_scale.astype(np.float32)
        full -= targets
        full *= np.repeat(2.0 / sizes, samples).astype(np.float32)[:, None]
        self.network.zero_grad()
        self.network.dense_backward(pooled, hidden, full)
        if apply_update:
            self.optimizer.step()
        return list(zip(mse.tolist(), mape.tolist()))

    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Trainable parameter count of the predictor network."""
        return self.network.num_parameters()


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
