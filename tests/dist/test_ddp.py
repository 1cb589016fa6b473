"""Data-parallel engine tests: the bitwise-parity ladder, GP comm-free
phases, AdaComp training, resume, and throughput accounting.

The enforceable correctness contract (ROADMAP: "parallel == serial
bit-identical is the enforceable part"):

* ``workers=1`` is bitwise the serial engine (same History, same
  checkpoint bytes) on every backend — pure delegation;
* ``LocalTransport`` vs ``ProcessTransport`` at ``workers=2`` is
  bitwise (identical replica construction + rank-ordered reduction);
* ``workers=2`` vs serial is allclose, not bitwise — sharded float32
  GEMMs and shard-local BN batch statistics cannot reproduce the
  full-batch bits (same precedent as the pipeline executor's
  equivalence tests).
"""

import os
import pickle

import numpy as np
import pytest

from repro import nn
from repro.core import Checkpointing, HeuristicSchedule, ThroughputTimer, adagp_engine
from repro.core.schedule import Phase
from repro.data import synthetic_images
from repro.dist import (
    ddp_engine,
    dp_strategy,
    shard_sizes,
    shutdown,
)
from repro.dist.codec import HEADER_BYTES
from repro.models import build_mini
from repro.nn.backend import native_available
from repro.nn.losses import CrossEntropyLoss, accuracy

BACKENDS = [None, "fused"] + (["native"] if native_available() else [])


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


class _Idle(nn.Module):
    """Passes activations through; its parameter never gets a gradient."""

    def __init__(self):
        super().__init__()
        self.unused = nn.Parameter(np.ones(5, dtype=np.float32))

    def forward(self, x):
        return x

    def backward(self, grad_out):
        return grad_out


def _model_with_idle_parameter(seed=0):
    """``_model`` with a grad-free parameter between two live ones."""
    model = _model(seed)
    model.layers.insert(2, _Idle())
    return model


def _split():
    return synthetic_images(3, 48, 24, image_size=8, seed=0)


def _train_fn(split):
    return lambda: split.train.batches(16, rng=np.random.default_rng(1))


def _val_fn(split):
    return lambda: split.val.batches(24, shuffle=False)


def _schedule():
    return HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),))


def _serial(backend=None, **kwargs):
    return adagp_engine(
        _model(0),
        CrossEntropyLoss(),
        lr=0.05,
        metric_fn=accuracy,
        schedule=_schedule(),
        backend=backend,
        **kwargs,
    )


def _ddp(workers=2, transport="local", backend=None, **kwargs):
    return ddp_engine(
        _model(0),
        CrossEntropyLoss(),
        workers=workers,
        transport=transport,
        lr=0.05,
        metric_fn=accuracy,
        schedule=_schedule(),
        backend=backend,
        **kwargs,
    )


class TestParityLadder:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_workers_1_is_bitwise_serial(self, backend):
        split = _split()
        serial = _serial(backend=backend)
        h_serial = serial.fit(_train_fn(split), _val_fn(split), 3)
        ddp = _ddp(workers=1, backend=backend)
        h_ddp = ddp.fit(_train_fn(split), _val_fn(split), 3)
        assert h_ddp == h_serial
        assert pickle.dumps(ddp.state_dict()) == pickle.dumps(serial.state_dict())
        assert dp_strategy(ddp).transport is None  # no comm machinery at all

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_local_equals_process_bitwise(self, backend):
        split = _split()
        local = _ddp(workers=2, transport="local", backend=backend)
        h_local = local.fit(_train_fn(split), _val_fn(split), 3)
        proc = _ddp(workers=2, transport="process", backend=backend)
        h_proc = proc.fit(_train_fn(split), _val_fn(split), 3)
        try:
            assert h_local == h_proc
            assert pickle.dumps(local.state_dict()) == pickle.dumps(
                proc.state_dict()
            )
        finally:
            shutdown(local)
            shutdown(proc)

    def test_local_equals_process_bitwise_with_coasted_layers(self):
        """VGG13-mini serves only its classifier: in Phase GP every rank
        coasts the ten BN-fed convs on its own optimizer's momentum."""
        split = synthetic_images(10, 32, 16, image_size=16, seed=0)
        engines, histories = [], []
        try:
            for transport in ("local", "process"):
                ddp = ddp_engine(
                    build_mini("VGG13", 10, rng=np.random.default_rng(0)),
                    CrossEntropyLoss(), workers=2, transport=transport, lr=0.05,
                    metric_fn=accuracy, schedule=_schedule(),
                )
                engines.append(ddp)
                assert len(ddp.coast) == 20
                histories.append(ddp.fit(_train_fn(split), _val_fn(split), 3))
            assert sum(histories[0].gp_batches) > 0
            assert histories[0] == histories[1]
            assert pickle.dumps(engines[0].state_dict()) == pickle.dumps(
                engines[1].state_dict()
            )
        finally:
            for ddp in engines:
                shutdown(ddp)

    def test_parameter_without_gradient_stays_none_on_every_rank(self):
        """A bucket slot no rank fills installs no ``grad`` and leaves no
        momentum slot, on rank 0 and the replica alike; Local ≡ Process
        stays bitwise around it."""
        split = _split()
        engines, histories = [], []
        try:
            for transport in ("local", "process"):
                ddp = ddp_engine(
                    _model_with_idle_parameter(), CrossEntropyLoss(), workers=2,
                    transport=transport, lr=0.05, metric_fn=accuracy,
                    schedule=_schedule(),
                )
                engines.append(ddp)
                histories.append(ddp.fit(_train_fn(split), _val_fn(split), 3))
                params = ddp.optimizer.parameters
                idle = params.index(ddp.model.layers[2].unused)
                inputs, targets = next(iter(_train_fn(split)()))
                ddp.train_batch(inputs, targets, Phase.BP)
                assert params[idle].grad is None
                assert all(p.grad is not None for i, p in enumerate(params) if i != idle)
                transport_ = dp_strategy(ddp).transport
                transport_.submit(1, {"op": "state"})
                replica = transport_.collect(1)["optimizer"]
                for state in (ddp.optimizer.state_dict(), replica):
                    stepped = state["slots"]["_velocity"]
                    assert idle not in stepped and len(stepped) == len(params) - 1
            assert histories[0] == histories[1]
            assert pickle.dumps(engines[0].state_dict()) == pickle.dumps(
                engines[1].state_dict()
            )
        finally:
            for ddp in engines:
                shutdown(ddp)

    def test_workers_2_close_to_serial(self):
        split = _split()
        serial = _serial()
        h_serial = serial.fit(_train_fn(split), _val_fn(split), 4)
        ddp = _ddp(workers=2)
        h_ddp = ddp.fit(_train_fn(split), _val_fn(split), 4)
        try:
            # Not bitwise — sharded GEMMs and shard-local BN stats differ
            # from full-batch serial at the float32 level, and GP phases
            # amplify the drift (~1% relative by epoch 4).  The ladder's
            # bitwise gates are W1≡serial and Local≡Process above.
            np.testing.assert_allclose(
                h_ddp.train_loss, h_serial.train_loss, rtol=2e-2, atol=1e-4
            )
            np.testing.assert_allclose(
                h_ddp.val_loss, h_serial.val_loss, rtol=2e-2, atol=1e-4
            )
            # The phase schedule runs on the driver: counts match exactly.
            assert h_ddp.bp_batches == h_serial.bp_batches
            assert h_ddp.gp_batches == h_serial.gp_batches
        finally:
            shutdown(ddp)

    def test_three_workers_run(self):
        split = _split()
        ddp = _ddp(workers=3)
        history = ddp.fit(_train_fn(split), _val_fn(split), 2)
        try:
            assert np.isfinite(history.train_loss).all()
        finally:
            shutdown(ddp)


class TestPhaseAwareComm:
    def test_gp_batches_ship_zero_gradient_bytes(self):
        split = _split()
        # All-GP after the warm-up epoch: the only comm past epoch 1's
        # boundary sync must be nothing at all.
        ddp = ddp_engine(
            _model(0),
            CrossEntropyLoss(),
            workers=2,
            lr=0.05,
            metric_fn=accuracy,
            schedule=HeuristicSchedule(warmup_epochs=1, ladder=((10, (1, 0)),)),
        )
        history = ddp.fit(_train_fn(split), _val_fn(split), 4)
        try:
            assert history.bp_batches == [3, 0, 0, 0]
            # A comm-free epoch leaves no ledger row.
            rows = {epoch: {} for epoch in range(4)} | dp_strategy(ddp).comm.epochs
            assert rows[0]["grad_wire_bytes"] > 0  # warm-up really communicated
            for epoch in (1, 2, 3):
                assert rows[epoch].get("grad_wire_bytes", 0) == 0
            # Epoch 1's first GP batch pays the one BP→GP boundary sync;
            # consecutive GP epochs are strictly comm-free.
            assert rows[1]["sync_bytes"] > 0
            assert rows[2].get("sync_bytes", 0) == 0
            assert rows[3].get("sync_bytes", 0) == 0
        finally:
            shutdown(ddp)

    def test_boundary_sync_carries_batchnorm_statistics(self):
        """Shard-local batch statistics make every replica's running
        statistics drift from rank 0's during a BP run; the boundary
        sync overwrites them with the rest of rank 0's trainable state."""
        ddp = ddp_engine(
            build_mini("VGG13", 10, rng=np.random.default_rng(0)),
            CrossEntropyLoss(),
            workers=2,
            lr=0.05,
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, 8)

        def replica_state():
            transport = dp_strategy(ddp).transport
            transport.submit(1, {"op": "state"})
            return transport.collect(1)["model"]

        try:
            ddp.train_batch(x, y, Phase.WARMUP)
            rank0 = ddp.model.state_dict()
            statistics = [key for key in rank0 if "running_" in key]
            assert len(statistics) == 2 * 10
            assert any(
                not np.array_equal(replica_state()[key], rank0[key]) for key in statistics
            )
            # One sample: rank 1 is synced at the BP→GP boundary and then
            # sits the batch out, so what it holds is what was sent.
            ddp.train_batch(x[:1], y[:1], Phase.GP)
            replica = replica_state()
            for key in statistics:
                np.testing.assert_array_equal(replica[key], rank0[key], err_msg=key)
        finally:
            shutdown(ddp)

    def test_identity_comm_accounting(self):
        split = _split()
        ddp = _ddp(workers=2)
        ddp.fit(_train_fn(split), _val_fn(split), 2)
        try:
            comm = dp_strategy(ddp).comm
            totals = comm.totals()
            assert totals["grad_wire_bytes"] > 0
            assert totals["sync_bytes"] > 0
            # Identity codec: every BP batch counts three bucket payloads
            # (rank 1's uplink, then both ranks' to rank 1), each the
            # model's real parameter bytes (no padding) plus one header.
            payloads = 3 * sum(ddp.history.bp_batches)
            model_bytes = sum(p.data.nbytes for p in ddp.optimizer.parameters)
            assert totals["grad_dense_bytes"] == payloads * model_bytes
            assert totals["grad_wire_bytes"] == payloads * (model_bytes + HEADER_BYTES)
        finally:
            shutdown(ddp)

    def test_fresh_stats_are_nan(self):
        ddp = _ddp(workers=2)
        try:
            assert np.isnan(dp_strategy(ddp).comm.compression_ratio())
        finally:
            shutdown(ddp)


class TestAdaComp:
    def test_adacomp_trains_and_compresses(self):
        split = _split()
        ddp = _ddp(workers=2, codec="adacomp")
        history = ddp.fit(_train_fn(split), _val_fn(split), 4)
        try:
            assert np.isfinite(history.train_loss).all()
            assert history.train_loss[-1] < history.train_loss[0]
            ratio = dp_strategy(ddp).comm.compression_ratio()
            assert ratio > 1.0  # tiny test tensors; real models hit 40x+
        finally:
            shutdown(ddp)

    def test_adacomp_local_equals_process(self):
        # Lossy codec, still transport-invariant: residual state is
        # rank-local and deterministic.
        split = _split()
        local = _ddp(workers=2, transport="local", codec="adacomp")
        h_local = local.fit(_train_fn(split), _val_fn(split), 3)
        proc = _ddp(workers=2, transport="process", codec="adacomp")
        h_proc = proc.fit(_train_fn(split), _val_fn(split), 3)
        try:
            assert h_local == h_proc
        finally:
            shutdown(local)
            shutdown(proc)


class TestCheckpointResume:
    def test_resume_is_bitwise_with_identity_codec(self, tmp_path):
        split = _split()
        full = _ddp(workers=2)
        full.fit(_train_fn(split), _val_fn(split), 2)
        path = str(tmp_path / "mid.ckpt")
        full.save_checkpoint(path)
        full.fit(_train_fn(split), _val_fn(split), 2)
        resumed = _ddp(workers=2)
        resumed.load_checkpoint(path)
        resumed.fit(_train_fn(split), _val_fn(split), 2)
        try:
            assert resumed.history == full.history
            assert pickle.dumps(resumed.state_dict()) == pickle.dumps(
                full.state_dict()
            )
        finally:
            shutdown(full)
            shutdown(resumed)

    def test_load_checkpoint_resyncs_replicas_of_a_trained_engine(self, tmp_path):
        """Loading into an engine whose replicas already trained makes
        them stale; the next batch must re-broadcast rank 0's state."""
        split = _split()
        full = _ddp(workers=2)
        full.fit(_train_fn(split), _val_fn(split), 2)
        path = str(tmp_path / "mid.ckpt")
        full.save_checkpoint(path)
        full.fit(_train_fn(split), _val_fn(split), 2)
        resumed = _ddp(workers=2)
        # A BP then a GP batch leave the replicas on their own weights
        # with no phase-boundary resync pending.
        inputs, targets = next(iter(_train_fn(split)()))
        resumed.train_batch(inputs, targets, Phase.BP)
        resumed.train_batch(inputs, targets, Phase.GP)
        resumed.load_checkpoint(path)
        resumed.fit(_train_fn(split), _val_fn(split), 2)
        try:
            assert resumed.history == full.history
            assert pickle.dumps(resumed.state_dict()) == pickle.dumps(
                full.state_dict()
            )
        finally:
            shutdown(full)
            shutdown(resumed)

    def test_checkpointing_callback_is_rank_0_only(self, tmp_path):
        # Only the driver runs a fit loop, so an attached Checkpointing
        # callback fires once per world — one file, loadable as usual.
        split = _split()
        path = str(tmp_path / "ddp.ckpt")
        ddp = _ddp(workers=2, callbacks=[Checkpointing(path)])
        ddp.fit(_train_fn(split), _val_fn(split), 2)
        try:
            assert os.path.exists(path)
            fresh = _ddp(workers=2, callbacks=[Checkpointing(path)])
            fresh.load_checkpoint(path)
            assert fresh.current_epoch == 2
        finally:
            shutdown(ddp)
            if "fresh" in locals():
                shutdown(fresh)


class TestFactoryValidation:
    def test_object_kwargs_rejected_for_multiworker(self):
        with pytest.raises(ValueError, match="object-valued"):
            ddp_engine(
                _model(0),
                CrossEntropyLoss(),
                workers=2,
                optimizer=nn.SGD(_model(0).parameters(), lr=0.1),
            )

    def test_backend_instances_rejected_for_multiworker(self):
        from repro.nn.backend import FusedBackend

        with pytest.raises(ValueError, match="backend by name"):
            ddp_engine(
                _model(0), CrossEntropyLoss(), workers=2, backend=FusedBackend()
            )

    def test_unknown_inner_rejected(self):
        with pytest.raises(ValueError, match="unknown inner"):
            ddp_engine(_model(0), CrossEntropyLoss(), inner="pipeline")

    def test_bp_inner_runs(self):
        split = _split()
        ddp = ddp_engine(
            _model(0),
            CrossEntropyLoss(),
            workers=2,
            inner="bp",
            lr=0.05,
            metric_fn=accuracy,
        )
        history = ddp.fit(_train_fn(split), _val_fn(split), 2)
        try:
            assert np.isfinite(history.train_loss).all()
        finally:
            shutdown(ddp)

    def test_dp_strategy_rejects_serial_engine(self):
        with pytest.raises(TypeError, match="DataParallelStrategy"):
            dp_strategy(_serial())


class TestSharding:
    def test_shard_sizes_partition_exactly(self):
        for n in (1, 2, 7, 16, 33):
            for world in (1, 2, 3, 5):
                sizes = shard_sizes(n, world)
                assert sum(sizes) == n
                assert len(sizes) == world
                assert max(sizes) - min(s for s in sizes) <= 1
                assert sizes[0] >= 1  # the driver always has local work

    def test_small_batches_leave_ranks_idle(self):
        assert shard_sizes(1, 3) == [1, 0, 0]
        assert shard_sizes(2, 3) == [1, 1, 0]


class TestThroughputAccounting:
    def test_worker_batches_are_reduced_not_inflated(self):
        split = _split()
        timer = ThroughputTimer()
        ddp = _ddp(workers=2, callbacks=[timer])
        ddp.fit(_train_fn(split), _val_fn(split), 2)
        try:
            for phase in Phase:
                global_batches = timer.batches[phase]
                worker_batches = timer.worker_batches[phase]
                if global_batches == 0:
                    assert worker_batches == 0
                    continue
                # batch 16 over 2 workers: every rank active every batch.
                assert worker_batches == 2 * global_batches
                assert timer.worker_batches_per_second(phase) == pytest.approx(
                    2 * timer.batches_per_second(phase)
                )
        finally:
            shutdown(ddp)

    def test_serial_counts_unchanged(self):
        split = _split()
        timer = ThroughputTimer()
        serial = _serial(callbacks=[timer])
        serial.fit(_train_fn(split), _val_fn(split), 2)
        for phase in Phase:
            assert timer.worker_batches[phase] == timer.batches[phase]

    def test_timer_state_dict_round_trips(self):
        timer = ThroughputTimer()
        timer.worker_batches[Phase.BP] = 6
        timer.batches[Phase.BP] = 3
        state = timer.state_dict()
        fresh = ThroughputTimer()
        fresh.load_state_dict(state)
        assert fresh.worker_batches[Phase.BP] == 6
        assert fresh.batches[Phase.BP] == 3
        assert "worker shards" in timer.summary()
