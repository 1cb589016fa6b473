"""The predictor's two-GEMM form against its layered oracle.

``GradientPredictor`` never runs ``PredictorNetwork.forward``: all four
entry points go through ``dense_forward`` / ``dense_backward`` (DESIGN.md
§4).  The layered network stays as the parameter container and as the
reference these tests compare against — outputs and all four parameter
gradients at atol <= 1e-5 on every backend, on hypothesis-generated
mixes of conv / linear / sequence-linear layers, with the head bucketed
by the merge rule and with every row width split off — plus the
Fig-15 metrics against their reference implementations, independence
from the caller's layer order, and the staleness contract of the
version-keyed dense operator.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import predictor as predictor_module
from repro.core import (
    GradientPredictor,
    HeuristicSchedule,
    adagp_engine,
    pipeline_adagp_engine,
    reorganize,
)
from repro.core.metrics import mean_absolute_percentage_error, mean_squared_error
from repro.data import synthetic_images
from repro.nn.backend import list_backends, native_available, use_backend
from repro.nn.losses import CrossEntropyLoss

ATOL = 1e-5

BACKENDS = [
    pytest.param(
        name,
        marks=[pytest.mark.skip(reason="native extension unavailable")]
        if name == "native" and not native_available()
        else [],
    )
    for name in list_backends()
]

# ----------------------------------------------------------------------
# Layer mixes.  A spec is (kind, units, fan_in, extent, bias, batch); the
# predictor only reads a layer's type, shapes and bias, so activations
# are drawn directly instead of running the layer.
# ----------------------------------------------------------------------
_odd = st.sampled_from([1, 3, 5])
_conv = st.tuples(
    st.just("conv"),
    st.integers(1, 5),
    st.integers(1, 3),
    # Odd H != W on both sides of the 8x8 grid, the grid itself, and
    # a single cell.
    st.sampled_from([(3, 5), (7, 11), (9, 5), (13, 3), (1, 7), (8, 8), (1, 1)]),
    st.booleans(),
    _odd,
)
_linear2d = st.tuples(
    st.just("linear2d"), st.integers(1, 7), st.integers(1, 9), st.none(),
    st.booleans(), _odd,
)
_linear3d = st.tuples(
    st.just("linear3d"),
    st.integers(1, 7),
    st.integers(1, 9),
    st.sampled_from([1, 3, 6, 7, 9, 13]),  # seq below and above the grid
    st.booleans(),
    _odd,
)
# Row widths 28, 19, 10 and 6 in one stack; a plane with one side past the
# grid but fewer cells (9x5) next to one with more cells (7x11).
_PINNED = [
    ("conv", 3, 3, (9, 5), True, 3),
    ("conv", 2, 2, (7, 11), True, 1),
    ("linear2d", 5, 9, None, True, 1),
    ("linear3d", 4, 6, 6, False, 3),
]
_mixes = st.lists(
    st.one_of(_conv, _linear2d, _linear3d), min_size=1, max_size=4
) | st.permutations(_PINNED)


def _build(specs, seed):
    """[(layer, activation)] for a mix, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    entries = []
    for kind, units, fan_in, extent, bias, batch in specs:
        if kind == "conv":
            layer = nn.Conv2d(fan_in, units, 3, padding=1, bias=bias, rng=rng)
            shape = (batch, units, *extent)
        elif kind == "linear2d":
            layer = nn.Linear(fan_in, units, bias=bias, rng=rng)
            shape = (batch, units)
        else:
            layer = nn.Linear(fan_in, units, bias=bias, rng=rng)
            shape = (batch, extent, units)
        entries.append((layer, rng.standard_normal(shape).astype(np.float32)))
    return entries


def _predictor(entries, seed=5, **kwargs):
    max_row = max(layer.gradient_size() for layer, _ in entries)
    return GradientPredictor(max_row, rng=np.random.default_rng(seed), **kwargs)


def _param_grads(network):
    return [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        for p in network.parameters()
    ]


def _locate(stack):
    """``(bucket position, start, units, row)`` per layer, in the order
    the layers were handed to ``GradientPredictor._forward``."""
    found = {
        index: (position, start, units, row)
        for position, bucket in enumerate(stack.buckets)
        for index, start, units, row in bucket.members
    }
    return [found[index] for index in range(len(found))]


def _split_buckets():
    """A bucket costs nothing: every distinct row width gets its own."""
    return mock.patch.object(predictor_module, "_BUCKET_CELLS", 0)


def _targets(entries, seed):
    """Random ``(weight_grads, bias_grads)`` for a mix."""
    rng = np.random.default_rng(seed + 2)
    weight_grads, bias_grads = [], []
    for layer, _ in entries:
        weight_grads.append(
            rng.standard_normal(layer.weight.shape).astype(np.float32)
        )
        bias_grads.append(
            None
            if layer.bias is None
            else rng.standard_normal(layer.bias.shape).astype(np.float32)
        )
    return weight_grads, bias_grads


def _raw_rows(predictor, layer, output):
    """The network rows ``_forward`` computes for one layer."""
    (bucket,) = predictor._forward([layer], [output]).buckets
    return bucket.rows


def _oracle_rows(predictor, layer, output):
    """Layered ``network(x)`` masked to the layer's row width."""
    x = reorganize.reorganize_activations(layer, output)
    return predictor.network(x)[:, : layer.gradient_size()]


def _check_against_layered(backend, specs, seed):
    """One stacked dense forward/backward == the layered network run
    layer by layer with its gradients summed."""
    entries = _build(specs, seed)
    predictor = _predictor(entries)
    network = predictor.network
    layers = [layer for layer, _ in entries]
    outputs = [output for _, output in entries]
    rng = np.random.default_rng(seed + 1)
    with use_backend(backend):
        stack = predictor._forward(layers, outputs)
        grad_rows = [np.zeros_like(bucket.rows) for bucket in stack.buckets]
        expected = [np.zeros_like(p.data) for p in network.parameters()]
        for (layer, output), (bucket, start, units, row) in zip(
            entries, _locate(stack)
        ):
            x = reorganize.reorganize_activations(layer, output)
            full = network(x)
            np.testing.assert_allclose(
                stack.buckets[bucket].rows[start : start + units, :row],
                full[:, :row],
                atol=ATOL,
            )
            grad = rng.standard_normal((units, row)).astype(np.float32)
            grad_rows[bucket][start : start + units, :row] = grad
            grad_full = np.zeros_like(full)
            grad_full[:, :row] = grad
            network.zero_grad()
            network.backward(grad_full)
            for total, part in zip(expected, _param_grads(network)):
                total += part
        network.zero_grad()
        network.dense_backward(
            stack.inputs, stack.extents, stack.hidden, stack.spans(), grad_rows
        )
    for actual, total in zip(_param_grads(network), expected):
        np.testing.assert_allclose(actual, total, atol=ATOL, rtol=1e-4)


class TestDenseMatchesLayered:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(specs=_mixes, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_forward_and_parameter_gradients(self, backend, specs, seed):
        _check_against_layered(backend, specs, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(specs=_mixes, seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_every_row_width_its_own_bucket(self, backend, specs, seed):
        """The test mixes are too small for a split head to pay, so the
        merge rule keeps one bucket; a free split runs one head GEMM per
        distinct row width."""
        with _split_buckets():
            _check_against_layered(backend, specs, seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(specs=_mixes, seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_predict_many_matches_per_layer_predict(self, backend, specs, seed):
        entries = _build(specs, seed)
        predictor = _predictor(entries, normalize_targets=False)
        with use_backend(backend):
            batched = predictor.predict_many(
                [layer for layer, _ in entries], [output for _, output in entries]
            )
            for (layer, output), (w_many, b_many) in zip(entries, batched):
                w_one, b_one = predictor.predict(layer, output)
                np.testing.assert_allclose(w_many, w_one, atol=ATOL)
                rows = _oracle_rows(predictor, layer, output)
                w_ref, b_ref = reorganize.unflatten_gradients(layer, rows)
                np.testing.assert_allclose(w_one, w_ref, atol=ATOL)
                if layer.bias is None:
                    assert b_many is None and b_one is None
                else:
                    np.testing.assert_allclose(b_many, b_one, atol=ATOL)
                    np.testing.assert_allclose(b_one, b_ref, atol=ATOL)


def test_float64_activations_are_predicted_in_float32():
    """Models may hand over float64 activations (the transformer's
    mostly are); a float64 operand would drag both GEMMs off sgemm."""
    layer = nn.Linear(5, 3)
    output = np.random.default_rng(0).standard_normal((4, 9, 3))  # float64
    predictor = GradientPredictor(layer.gradient_size())
    stack = predictor._forward([layer], [output])
    (bucket,) = stack.buckets
    assert bucket.rows.dtype == stack.inputs.dtype == stack.hidden.dtype == np.float32
    assert predictor.predict(layer, output)[0].dtype == np.float32


class TestFig15Metrics:
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("split", [False, True])
    @given(specs=_mixes, seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_metrics_equal_reference_implementations(
        self, split, normalize, specs, seed
    ):
        """Each layer's ``(mse, mape)`` is the reference functions'
        value on the prediction the call measured.  ``apply_update=False``
        keeps the weights it measured; the running scale is refreshed
        before measuring, so ``predict()`` afterwards sees the same one,
        and the metrics read unclipped rows (``clip_sigma=inf``)."""
        entries = _build(specs, seed)
        weight_grads, bias_grads = _targets(entries, seed)
        predictor = _predictor(
            entries, normalize_targets=normalize, clip_sigma=np.inf
        )
        layers = [layer for layer, _ in entries]
        outputs = [output for _, output in entries]
        with _split_buckets() if split else contextlib.nullcontext():
            metrics = predictor.train_step_many(
                layers, outputs, weight_grads, bias_grads, apply_update=False
            )
        for (layer, output), w_grad, b_grad, (mse, mape) in zip(
            entries, weight_grads, bias_grads, metrics
        ):
            predicted = reorganize.flatten_gradients(
                layer, *predictor.predict(layer, output)
            ).astype(np.float64)
            actual = reorganize.flatten_gradients(layer, w_grad, b_grad)
            actual = actual.astype(np.float64)
            assert mse == pytest.approx(
                mean_squared_error(actual, predicted), rel=1e-5
            )
            assert mape == pytest.approx(
                mean_absolute_percentage_error(actual, predicted), rel=1e-5
            )


class TestLayerOrder:
    @pytest.mark.parametrize("split", [False, True])
    @given(
        specs=_mixes,
        seed=st.integers(0, 2**16),
        order_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_shuffled_stack_gives_the_same_per_layer_results(
        self, split, specs, seed, order_seed
    ):
        """Bucketing reorders samples internally; every result comes
        back in the caller's order, whatever that order is."""
        entries = _build(specs, seed)
        weight_grads, bias_grads = _targets(entries, seed)
        order = np.random.default_rng(order_seed).permutation(len(entries))
        results = []
        for positions in (range(len(entries)), order):
            predictor = _predictor(entries)
            layers = [entries[k][0] for k in positions]
            outputs = [entries[k][1] for k in positions]
            with _split_buckets() if split else contextlib.nullcontext():
                predictions = predictor.predict_many(layers, outputs)
                metrics = predictor.train_step_many(
                    layers,
                    outputs,
                    [weight_grads[k] for k in positions],
                    [bias_grads[k] for k in positions],
                    apply_update=False,
                )
            by_layer = {
                k: (predictions[i], metrics[i]) for i, k in enumerate(positions)
            }
            results.append((by_layer, _param_grads(predictor.network)))
        (in_order, grads), (shuffled, shuffled_grads) = results
        for k, ((w_grad, b_grad), metric) in in_order.items():
            (w_shuffled, b_shuffled), metric_shuffled = shuffled[k]
            np.testing.assert_allclose(w_shuffled, w_grad, atol=ATOL)
            if b_grad is None:
                assert b_shuffled is None
            else:
                np.testing.assert_allclose(b_shuffled, b_grad, atol=ATOL)
            np.testing.assert_allclose(
                metric_shuffled, metric, rtol=1e-5, atol=ATOL
            )
        for actual, expected in zip(shuffled_grads, grads):
            np.testing.assert_allclose(actual, expected, atol=ATOL)


class TestDenseOperatorStaleness:
    """The dense operator is memoised on ``Parameter.version``: every
    way of changing a predictor parameter must invalidate it, and an
    unchanged network must not rebuild it."""

    def _setup(self):
        rng = np.random.default_rng(3)
        layer = nn.Conv2d(2, 4, 3, padding=1, rng=rng)
        output = rng.standard_normal((3, 4, 7, 5)).astype(np.float32)
        predictor = GradientPredictor(
            layer.gradient_size(), lr=1e-2, normalize_targets=False, rng=rng
        )
        return predictor, layer, output

    def _assert_fresh(self, predictor, layer, output):
        # Raw network rows: the engine's predictor also rescales them.
        np.testing.assert_allclose(
            _raw_rows(predictor, layer, output),
            _oracle_rows(predictor, layer, output),
            atol=ATOL,
        )

    def test_unchanged_versions_do_not_rebuild(self):
        predictor, layer, output = self._setup()
        predictor.predict(layer, output)
        built = predictor.network.dense_operator()
        predictor.predict(layer, output)
        assert predictor.network.dense_operator() is built

    def test_optimizer_step_invalidates(self):
        predictor, layer, output = self._setup()
        before, _ = predictor.predict(layer, output)
        w_grad = np.ones_like(layer.weight.data)
        b_grad = np.ones_like(layer.bias.data)
        for _ in range(3):
            predictor.train_step(layer, output, w_grad, b_grad)
        self._assert_fresh(predictor, layer, output)
        assert not np.allclose(predictor.predict(layer, output)[0], before)

    def test_load_state_dict_invalidates(self):
        predictor, layer, output = self._setup()
        predictor.predict(layer, output)
        donor = GradientPredictor(
            layer.gradient_size(), rng=np.random.default_rng(99)
        )
        predictor.network.load_state_dict(donor.network.state_dict())
        self._assert_fresh(predictor, layer, output)
        np.testing.assert_allclose(
            reorganize.flatten_gradients(layer, *predictor.predict(layer, output)),
            _oracle_rows(donor, layer, output),
            atol=ATOL,
        )

    def test_direct_write_with_bump_invalidates(self):
        predictor, layer, output = self._setup()
        predictor.predict(layer, output)
        for param in predictor.network.parameters():
            param.data *= np.float32(1.5)
            param.bump_version()
            self._assert_fresh(predictor, layer, output)

    def test_engine_checkpoint_resume_invalidates(self, tmp_path):
        split = synthetic_images(3, 32, 16, image_size=8, seed=0)

        def build():
            rng = np.random.default_rng(0)
            model = nn.Sequential(
                nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                nn.ReLU(),
                nn.GlobalAvgPool2d(),
                nn.Linear(4, 3, rng=rng),
            )
            return adagp_engine(
                model,
                CrossEntropyLoss(),
                lr=0.05,
                predictor_lr=1e-2,
                schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (1, 1)),)),
            )

        trained = build()
        trained.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(1)),
            lambda: split.val.batches(16, shuffle=False),
            epochs=2,
        )
        path = str(tmp_path / "ckpt.pkl")
        trained.save_checkpoint(path)

        resumed = build()
        layer = resumed.layers[0]
        output = np.random.default_rng(2).standard_normal((4, 4, 8, 8))
        output = output.astype(np.float32)
        resumed.predictor.predict(layer, output)  # builds the fresh-init operator
        resumed.load_checkpoint(path)
        self._assert_fresh(resumed.predictor, layer, output)
        np.testing.assert_array_equal(
            resumed.predictor.predict(layer, output)[0],
            trained.predictor.predict(trained.layers[0], output)[0],
        )


class TestScaleStore:
    def test_scales_do_not_outlive_their_layer(self):
        """A discarded layer's scale can never be inherited through
        ``id()`` reuse: the store holds layers weakly."""
        predictor = GradientPredictor(max_row=10)
        layer = nn.Linear(9, 4)
        output = np.ones((2, 4), dtype=np.float32)
        predictor.train_step(
            layer, output, np.ones_like(layer.weight.data), np.ones(4, np.float32)
        )
        assert len(predictor._scales) == 1
        del layer
        assert len(predictor._scales) == 0

    def test_state_round_trips_by_layer_index(self):
        layers = [nn.Linear(3, 2), nn.Linear(3, 2), nn.Linear(3, 2)]
        predictor = GradientPredictor(max_row=4)
        predictor.load_scales_state(layers, {0: 0.5, 2: 2.0})
        assert predictor.scales_state(layers) == {0: 0.5, 2: 2.0}
        assert predictor._scale_for(layers[1]) == 1.0
        # Re-keyed onto another engine's layers by position.
        twins = [nn.Linear(3, 2), nn.Linear(3, 2), nn.Linear(3, 2)]
        other = GradientPredictor(max_row=4)
        other.load_scales_state(twins, predictor.scales_state(layers))
        assert other._scale_for(twins[2]) == 2.0


class TestStrategiesOnTheSinglePath:
    """The pipeline executor's GP stream still learns through the dense
    path."""

    def _model(self):
        rng = np.random.default_rng(0)
        return nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(4, 8, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(8, 3, rng=rng),
        )

    def _fit(self, engine, epochs):
        split = synthetic_images(3, 96, 24, image_size=8, seed=0)
        return engine.fit(
            lambda: split.train.batches(16, rng=np.random.default_rng(1)),
            lambda: split.val.batches(24, shuffle=False),
            epochs=epochs,
        )

    def test_pipeline_gp_fit_is_finite_and_decreasing(self):
        engine = pipeline_adagp_engine(
            self._model(),
            CrossEntropyLoss(),
            num_stages=2,
            micro_batches=2,
            lr=0.05,
            schedule=HeuristicSchedule(warmup_epochs=2, ladder=((2, (1, 1)),)),
        )
        history = self._fit(engine, epochs=4)
        assert sum(history.gp_batches) > 0
        assert np.isfinite(history.train_loss).all()
        assert history.train_loss[-1] < history.train_loss[0]
