"""Backend selection through the TrainingEngine and pipeline executor.

Proves engine-level ``backend=`` reaches every batch, that pipeline
executor stages inherit it, and that backend choice is orthogonal to
bit-identical checkpoint/resume.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    HeuristicSchedule,
    Phase,
    adagp_engine,
    bp_engine,
    pipeline_adagp_engine,
)
from repro.data import synthetic_images
from repro.nn.backend import FusedBackend
from repro.nn.losses import CrossEntropyLoss, accuracy


class CountingBackend(FusedBackend):
    """Fused backend that counts conv dispatches, for routing assertions."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.conv_forward_calls = 0
        self.conv_backward_calls = 0

    def conv2d_forward(self, *args, **kwargs):
        self.conv_forward_calls += 1
        return super().conv2d_forward(*args, **kwargs)

    def conv2d_backward(self, *args, **kwargs):
        self.conv_backward_calls += 1
        return super().conv2d_backward(*args, **kwargs)


def _model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 3, rng=rng),
    )


def _split(seed=0):
    return synthetic_images(3, 48, 24, image_size=8, seed=seed)


def _fns(split, seed=1):
    return (
        lambda: split.train.batches(16, rng=np.random.default_rng(seed)),
        lambda: split.val.batches(24, shuffle=False),
    )


def _adagp(seed=0, **kwargs):
    return adagp_engine(
        _model(seed),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
        **kwargs,
    )


class TestEngineBackend:
    def test_bp_engine_fused_matches_numpy_first_batch(self):
        split = _split()
        inputs, targets = next(iter(split.train.batches(16, shuffle=False)))
        losses = {}
        for backend in ("numpy", "fused"):
            engine = bp_engine(
                _model(), CrossEntropyLoss(), lr=0.05, backend=backend
            )
            losses[backend] = engine.train_batch(inputs, targets).loss
        assert losses["fused"] == pytest.approx(losses["numpy"], abs=1e-4)

    def test_adagp_fused_end_to_end(self):
        split = _split()
        train_fn, val_fn = _fns(split)
        history = _adagp(backend="fused").fit(train_fn, val_fn, epochs=3)
        assert len(history.train_loss) == 3
        assert np.isfinite(history.train_loss).all()
        assert sum(history.gp_batches) > 0  # GP phase actually ran fused

    def test_engine_clears_model_caches_after_batch(self):
        split = _split()
        engine = bp_engine(_model(), CrossEntropyLoss(), lr=0.05)
        inputs, targets = next(iter(split.train.batches(16, shuffle=False)))
        engine.train_batch(inputs, targets)
        for module in engine.model.modules():
            assert module._saved is None, type(module).__name__

    def test_pipeline_stages_inherit_engine_backend(self):
        counting = CountingBackend()
        split = _split()
        engine = pipeline_adagp_engine(
            _model(),
            CrossEntropyLoss(),
            num_stages=2,
            micro_batches=4,
            lr=0.05,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
            backend=counting,
        )
        train_fn, val_fn = _fns(split)
        history = engine.fit(train_fn, val_fn, epochs=2)
        assert np.isfinite(history.train_loss).all()
        # Stage sub-models executed their conv slots on the engine backend.
        assert counting.conv_forward_calls > 0
        assert counting.conv_backward_calls > 0
        executor = engine.strategies[Phase.GP].executor
        executor.validate()


class TestBackendCheckpointOrthogonality:
    def _histories_equal(self, a, b):
        assert a.train_loss == b.train_loss
        assert a.val_loss == b.val_loss
        assert a.val_metric == b.val_metric
        assert a.bp_batches == b.bp_batches
        assert a.gp_batches == b.gp_batches

    def test_fused_resume_is_bit_identical(self, tmp_path):
        """Checkpoint/resume under the fused backend reproduces the
        uninterrupted fused run exactly — the backend introduces no
        hidden state outside the checkpoint."""
        split = _split()
        train_fn, val_fn = _fns(split)

        uninterrupted = _adagp(backend="fused").fit(train_fn, val_fn, epochs=4)

        path = str(tmp_path / "ckpt.pkl")
        first = _adagp(backend="fused")
        first.fit(train_fn, val_fn, epochs=2)
        first.save_checkpoint(path)

        resumed = _adagp(backend="fused")
        resumed.load_checkpoint(path)
        history = resumed.fit(train_fn, val_fn, epochs=2)
        self._histories_equal(history, uninterrupted)

    def test_checkpoint_loads_across_backends(self, tmp_path):
        """A checkpoint saved under one backend restores byte-identical
        state into an engine configured with another."""
        split = _split()
        train_fn, val_fn = _fns(split)
        fused = _adagp(backend="fused")
        fused.fit(train_fn, val_fn, epochs=2)
        path = str(tmp_path / "ckpt.pkl")
        fused.save_checkpoint(path)

        on_numpy = _adagp(backend="numpy")
        on_numpy.load_checkpoint(path)
        assert on_numpy.current_epoch == fused.current_epoch
        for key, value in fused.model.state_dict().items():
            np.testing.assert_array_equal(on_numpy.model.state_dict()[key], value)
        # And it keeps training without error on the other substrate.
        history = on_numpy.fit(train_fn, val_fn, epochs=1)
        assert np.isfinite(history.train_loss).all()
