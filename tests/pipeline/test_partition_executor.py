"""Tests for the executable pipeline engine: partitioning, the
event-driven executor, and the PipelineGPStrategy overlay.

The simulator remains the oracle: every measured timeline must satisfy
``Timeline.validate()`` (device exclusivity) *and* the simulator's
dependency rules (``validate_dependencies``).
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    HeuristicSchedule,
    Phase,
    pipeline_adagp_engine,
)
from repro.models import build_mini
from repro.nn.backend import FusedBackend
from repro.nn.losses import CrossEntropyLoss
from repro.pipeline import (
    PipelineExecutor,
    PipelineKind,
    StagePlan,
    balanced_boundaries,
    partition_sequential,
    probe_layer_costs,
    validate_dependencies,
)


def small_cnn(seed: int = 42, norm: bool = False) -> nn.Sequential:
    """BatchNorm-free by default: pipelined BP is then bit-comparable to
    full-batch BP (BN batch statistics differ per micro-batch).  With
    ``norm`` the stages hold every kind of saved value: a pooled conv
    context, a norm context, a mask, an argmax tuple, a shape, an input."""
    rng = np.random.default_rng(seed)

    def bn():
        return [nn.BatchNorm2d(8)] if norm else []

    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        *bn(),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        *bn(),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(8 * 8 * 8, 10, rng=rng),
    )


class TestPartition:
    def test_balanced_boundaries_minimize_peak(self):
        costs = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        bounds = balanced_boundaries(costs, 2)
        assert bounds == ((0, 1), (1, 6))

    def test_boundaries_cover_all_layers_in_order(self):
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        _, plan = partition_sequential(model, 4, (3, 16, 16))
        flat = [i for a, b in plan.boundaries for i in range(a, b)]
        assert flat == list(range(len(model.layers)))

    def test_stage_composition_matches_full_model(self):
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        stages, _ = partition_sequential(model, 3, (3, 16, 16))
        model.eval()
        x = np.random.default_rng(1).standard_normal((4, 3, 16, 16)).astype(
            np.float32
        )
        expected = model(x)
        out = x
        for stage in stages:
            out = stage(out)
        np.testing.assert_array_equal(out, expected)

    def test_probe_costs_conv_dominates_activation(self):
        model = small_cnn()
        costs = probe_layer_costs(model, (3, 16, 16))
        assert len(costs) == len(model.layers)
        assert costs[0] > costs[1]  # Conv2d >> ReLU on the cost model

    def test_probe_leaves_training_state_alone(self):
        model = build_mini("VGG13", 10, rng=np.random.default_rng(0))
        bn = next(m for m in model.modules() if isinstance(m, nn.BatchNorm2d))
        before = bn.running_mean.copy()
        probe_layer_costs(model, (3, 16, 16))
        np.testing.assert_array_equal(bn.running_mean, before)
        assert model.training

    def test_probe_keeps_no_pooled_workspace(self):
        """The probe forward is never followed by a backward, so a conv
        context it kept would be overwritten unreleased by the first
        real forward and the pool's gauge could never return to 0."""
        backend = FusedBackend()
        model = build_mini("VGG13", 10, rng=np.random.default_rng(0))
        with nn.backend_scope(backend):
            partition_sequential(model, 2, (3, 16, 16))
            assert backend.pool.outstanding == 0
            x = np.zeros((4, 3, 16, 16), dtype=np.float32)
            model.backward(np.ones_like(model(x)))
            model.clear_caches()
        assert backend.pool.outstanding == 0

    # Boundaries and layer costs of the zoo minis, computed before the
    # probe moved onto the module table; the table must not move them.
    VGG13_COSTS = (
        2873.0, 36.0, 36.0, 8171.0, 36.0, 36.0, 10.0, 5174.0, 12.0, 12.0,
        6616.0, 12.0, 12.0, 4.0, 3056.0, 6.0, 6.0, 4510.0, 6.0, 6.0, 2.0,
        4818.0, 2.0, 2.0, 6387.0, 2.0, 2.0, 2.0, 5991.0, 2.0, 2.0, 5991.0,
        2.0, 2.0, 2.0, 297.0,
    )
    RESNET50_COSTS = (2873.0, 24.0, 24.0, 13735.0, 7507.0, 6602.0, 6312.0, 2.0, 389.0)

    @pytest.mark.parametrize(
        "name, stages, boundaries, costs",
        [
            ("VGG13", 2, ((0, 17), (17, 36)), VGG13_COSTS),
            ("VGG13", 4, ((0, 7), (7, 17), (17, 25), (25, 36)), VGG13_COSTS),
            ("ResNet50", 2, ((0, 4), (4, 9)), RESNET50_COSTS),
            ("ResNet50", 4, ((0, 3), (3, 4), (4, 5), (5, 9)), RESNET50_COSTS),
        ],
    )
    def test_zoo_plans_are_pinned(self, name, stages, boundaries, costs):
        model = build_mini(name, 10, rng=np.random.default_rng(0))
        _, plan = partition_sequential(model, stages, (3, 16, 16))
        assert plan == StagePlan(boundaries=boundaries, layer_costs=costs)

    def test_rejects_non_sequential(self):
        with pytest.raises(TypeError):
            probe_layer_costs(nn.Linear(4, 4), (4,))

    def test_rejects_too_many_stages(self):
        with pytest.raises(ValueError):
            balanced_boundaries([1.0, 1.0], 3)


class TestExecutor:
    @pytest.mark.parametrize("kind", [PipelineKind.GPIPE, PipelineKind.DAPPLE])
    def test_bp_batch_matches_full_batch_backprop(self, kind):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, 8)
        loss_fn = CrossEntropyLoss()

        reference = small_cnn()
        out = reference(x)
        loss, grad = loss_fn(out, y)
        reference.zero_grad()
        reference.backward(grad)
        ref_grads = {n: p.grad.copy() for n, p in reference.named_parameters()}

        pipelined = small_cnn()
        executor = PipelineExecutor.from_model(
            pipelined, 2, (3, 16, 16), micro_batches=4, kind=kind
        )
        pipelined.zero_grad()
        run = executor.run_bp_batch(x, y, loss_fn)
        executor.validate()
        assert run.loss == pytest.approx(loss, abs=1e-6)
        for name, param in pipelined.named_parameters():
            np.testing.assert_allclose(
                param.grad, ref_grads[name], rtol=1e-4, atol=1e-5
            )

    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    @pytest.mark.parametrize("kind", [PipelineKind.GPIPE, PipelineKind.DAPPLE])
    def test_bp_batch_through_batchnorm_stages(self, kind, backend):
        """The per-micro-batch snapshot is one pointer per module.  With
        running statistics (eval-mode BN, so micro-batching changes no
        arithmetic) the pipelined batch equals one full-batch backward;
        with batch statistics it equals the micro-batches run one after
        another, forward then backward, with nothing to restore."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, 8)
        loss_fn = CrossEntropyLoss()

        def pipelined_grads(training):
            model = small_cnn(norm=True)
            executor = PipelineExecutor.from_model(
                model, 2, (3, 16, 16), micro_batches=4, kind=kind
            )
            if not training:
                model.eval()
            run = executor.run_bp_batch(x, y, loss_fn)
            executor.validate()
            return run.loss, {n: p.grad for n, p in model.named_parameters()}

        with nn.use_backend(backend):
            full = small_cnn(norm=True).eval()
            loss, grad = loss_fn(full(x), y)
            full.backward(grad)
            got_loss, got = pipelined_grads(training=False)
            assert got_loss == pytest.approx(loss, abs=1e-6)
            for name, param in full.named_parameters():
                np.testing.assert_allclose(
                    got[name], param.grad, rtol=1e-4, atol=1e-5, err_msg=name
                )

            serial = small_cnn(norm=True)
            for xm, ym in zip(np.array_split(x, 4), np.array_split(y, 4)):
                _, grad = loss_fn(serial(xm), ym)
                serial.backward(grad * (len(xm) / len(x)))
            _, got = pipelined_grads(training=True)
            for name, param in serial.named_parameters():
                np.testing.assert_array_equal(got[name], param.grad, err_msg=name)

    def test_restore_hands_backward_an_older_micro_batch(self):
        rng = np.random.default_rng(3)
        old, new = (
            rng.standard_normal((2, 3, 16, 16)).astype(np.float32) for _ in range(2)
        )
        grad_out = rng.standard_normal((2, 10)).astype(np.float32)
        stage = small_cnn(norm=True)
        stage(old)
        expected = stage.backward(grad_out)
        expected_grads = [p.grad for p in stage.parameters()]
        stage.zero_grad()

        stage(old)
        snap = PipelineExecutor._snapshot(list(stage.modules()))
        stage(new)
        assert all(
            module._saved is not saved for module, saved in snap if saved is not None
        )
        PipelineExecutor._restore(snap)
        np.testing.assert_array_equal(stage.backward(grad_out), expected)
        for param, grad in zip(stage.parameters(), expected_grads):
            np.testing.assert_array_equal(param.grad, grad)

    def test_timeline_dependencies_and_exclusivity(self):
        executor = PipelineExecutor.from_model(
            small_cnn(), 2, (3, 16, 16), micro_batches=4
        )
        rng = np.random.default_rng(2)
        loss_fn = CrossEntropyLoss()
        for _ in range(2):
            x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
            executor.run_bp_batch(x, rng.integers(0, 10, 8), loss_fn)
        executor.timeline.validate()
        validate_dependencies(executor.timeline)
        # 2 batches x 2 stages x (4 fw + 4 bw) slots
        assert len(executor.timeline.tasks) == 32

    def test_dependency_validator_catches_violations(self):
        executor = PipelineExecutor.from_model(
            small_cnn(), 2, (3, 16, 16), micro_batches=2
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        executor.run_bp_batch(x, rng.integers(0, 10, 4), CrossEntropyLoss())
        broken = executor.timeline
        # Shift the stage-1 forward of micro-batch 0 before its dependency.
        victim = next(
            t for t in broken.tasks
            if t.kind == "fw" and t.stage == 1 and t.micro_batch == 0
        )
        broken.tasks.remove(victim)
        broken.tasks.append(
            type(victim)(victim.device, -1.0, -0.5, "fw", 0, 1, batch=victim.batch)
        )
        with pytest.raises(AssertionError):
            validate_dependencies(broken)

    def test_gp_stream_packs_and_updates_nothing(self):
        executor = PipelineExecutor.from_model(
            small_cnn(), 2, (3, 16, 16), micro_batches=4
        )
        rng = np.random.default_rng(4)
        runs = [
            executor.run_gp_batch(
                rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
            )
            for _ in range(3)
        ]
        executor.validate()
        assert all(run.kind == "gp" for run in runs)
        assert all(np.isnan(run.loss) for run in runs)  # no targets given
        # Streaming with no flush: strictly tighter than sequential.
        sequential = sum(run.compute_time for run in runs)
        assert executor.makespan < sequential

    def test_micro_batch_smaller_than_count_rejected(self):
        executor = PipelineExecutor.from_model(
            small_cnn(), 2, (3, 16, 16), micro_batches=4
        )
        with pytest.raises(ValueError):
            executor.run_gp_batch(np.zeros((2, 3, 16, 16), dtype=np.float32))

    def test_chimera_rejected(self):
        with pytest.raises(ValueError):
            PipelineExecutor.from_model(
                small_cnn(), 2, (3, 16, 16), kind=PipelineKind.CHIMERA
            )


class TestPipelineGPStrategy:
    def test_engine_fit_runs_phases_and_validates(self):
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        engine = pipeline_adagp_engine(
            model,
            CrossEntropyLoss(),
            num_stages=2,
            micro_batches=4,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
            plateau_scheduler=False,
        )

        def batches():
            rng = np.random.default_rng(5)
            for _ in range(3):
                x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
                yield x, rng.integers(0, 10, 8)

        history = engine.fit(batches, batches, epochs=2)
        assert history.bp_batches == [3, 1]
        assert history.gp_batches == [0, 2]
        assert all(np.isfinite(history.train_loss))
        # Warm-up/BP epochs recorded per-layer predictor error.
        assert history.predictor_mape[0]
        executor = engine.strategies[Phase.GP].executor
        executor.validate()
        bw_tasks = [t for t in executor.timeline.tasks if t.kind == "bw"]
        assert len(bw_tasks) == 4 * 2 * 4  # 4 BP-style batches x 2 stages x 4 micro

    @pytest.mark.parametrize("phase", [Phase.BP, Phase.GP])
    def test_first_batch_returns_every_pooled_workspace(self, phase):
        """The lazy split probes the model inside the first batch."""
        backend = FusedBackend()
        engine = pipeline_adagp_engine(
            build_mini("VGG13", 10, rng=np.random.default_rng(0)),
            CrossEntropyLoss(),
            num_stages=2,
            micro_batches=2,
            backend=backend,
        )
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        engine.train_batch(x, rng.integers(0, 10, 4), phase)
        assert backend.pool.outstanding == 0
        assert all(m._saved is None for m in engine.model.modules())

    def test_gp_phase_applies_predicted_updates(self):
        model = build_mini("ResNet50", 10, rng=np.random.default_rng(0))
        engine = pipeline_adagp_engine(
            model,
            CrossEntropyLoss(),
            num_stages=2,
            micro_batches=4,
            plateau_scheduler=False,
        )
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, 8)
        # One BP batch so the predictor sees real gradients first.
        engine.train_batch(x, y, Phase.BP)
        model.zero_grad()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        result = engine.train_batch(x, y, Phase.GP)
        assert result.phase == Phase.GP
        changed = [
            n for n, p in model.named_parameters()
            if not np.array_equal(p.data, before[n])
        ]
        assert changed  # predicted updates landed without any backward
        # No gradient ever touched param.grad during the GP batch.
        layers = nn.graph.trace(model).predictable
        assert all(layer.weight.grad is None for layer in layers)
