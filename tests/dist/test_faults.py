"""Fault-injection tests: the "faulted ≡ unfaulted" parity rung.

A seeded :class:`ChaosTransport` turns every distributed failure mode
into a deterministic fixture.  The acceptance property (ISSUE 9): under
the identity codec, a run with injected kills / timeouts / corruption /
duplicates is *bitwise identical* — History and final state — to the
unfaulted run, because recovery rebuilds a rank from the retained
phase-boundary state plus a replay of its accepted-command log.

Past the rebuild budget the contract weakens by design: a permanently
forfeited rank re-shards the batch layout, so the run is no longer
unfaulted-bitwise — but it *is* bitwise-reproducible across identical
fault schedules, finishes with finite losses, and degrades to serial
below ``min_workers`` instead of aborting.
"""

import os
import pickle

import numpy as np
import pytest

from repro import nn
from repro.core import HeuristicSchedule
from repro.data import synthetic_images
from repro.dist import (
    ChaosTransport,
    Fault,
    LocalTransport,
    PayloadCorrupt,
    ReliableTransport,
    WorkerDied,
    WorkerTimeout,
    corrupt_frame,
    ddp_engine,
    dp_strategy,
    frame_payload,
    resolve_transport,
    shutdown,
    unframe_payload,
)
from repro.nn.losses import CrossEntropyLoss, accuracy


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


def _split():
    return synthetic_images(3, 48, 24, image_size=8, seed=0)


def _run(transport, codec="identity", workers=2, epochs=3, max_rebuilds=3, **kwargs):
    """One short BP+GP fit; returns (History, state bytes, strategy)."""
    split = _split()
    engine = ddp_engine(
        _model(0),
        CrossEntropyLoss(),
        workers=workers,
        # chaos timeouts are schedule-driven, not waits: no backoff
        transport=ReliableTransport(
            transport, retry_backoff=0.0, max_rebuilds=max_rebuilds
        ),
        codec=codec,
        lr=0.05,
        metric_fn=accuracy,
        # Warm-up epoch is all-BP; later epochs interleave 2 GP per BP,
        # so both phases (and both boundary syncs) see traffic.
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
        **kwargs,
    )
    history = engine.fit(
        lambda: split.train.batches(16, rng=np.random.default_rng(1)),
        lambda: split.val.batches(24, shuffle=False),
        epochs,
    )
    state = pickle.dumps(engine.state_dict())
    strategy = dp_strategy(engine)
    shutdown(engine)
    return history, state, strategy


@pytest.fixture(scope="module")
def unfaulted():
    """The clean-run baseline every faulted run must reproduce bitwise
    (LocalTransport; the Local ≡ Process rung makes it transport-free)."""
    history, state, _ = _run("local")
    return history, state


# Matrix rows: each targets one fault kind at a specific command in a
# specific phase (op="compute" → BP gradient gather, op="gp" → a GP run).
MATRIX = [
    ("kill", "compute"),
    ("kill", "gp"),
    ("delay", "compute"),
    ("delay", "gp"),
    ("drop", "compute"),
    ("drop", "gp"),
    ("corrupt", "compute"),
    ("corrupt", "gp"),
    ("duplicate", "compute"),
    ("duplicate", "gp"),
]

# Recovery action the ledger must show for each kind (duplicates are
# absorbed by sequence dedup without touching the recovery machinery).
EXPECT_REBUILD = {"kill": True, "delay": False, "drop": True, "corrupt": True}


class TestFaultMatrixLocal:
    @pytest.mark.parametrize("kind,op", MATRIX, ids=[f"{k}-{o}" for k, o in MATRIX])
    def test_faulted_equals_unfaulted_bitwise(self, unfaulted, kind, op):
        wrapper = ChaosTransport("local", faults=[Fault(kind, rank=1, op=op, nth=1)])
        history, state, strategy = _run(wrapper)
        h0, s0 = unfaulted
        assert [e.kind for e in wrapper.events] == [kind]  # it really fired
        assert history == h0
        assert state == s0
        if kind != "duplicate":
            totals = strategy.comm.totals()
            assert totals["faults"] >= 1
            assert (totals["rebuilds"] >= 1) == EXPECT_REBUILD[kind]

    def test_fault_ledger_records_kind_and_rank(self, unfaulted):
        wrapper = ChaosTransport(
            "local", faults=[Fault("kill", rank=1, op="compute", nth=0)]
        )
        _, _, strategy = _run(wrapper)
        died = [f for f in strategy.fault_log if f["kind"] == "died"]
        assert died and died[0]["rank"] == 1

    def test_multiple_faults_one_run_still_bitwise(self, unfaulted):
        wrapper = ChaosTransport(
            "local",
            faults=[
                Fault("kill", rank=1, op="compute", nth=0),
                Fault("delay", rank=1, op="gp", nth=1),
                Fault("duplicate", rank=1, op="apply", nth=2),
            ],
        )
        history, state, _ = _run(wrapper)
        h0, s0 = unfaulted
        assert len(wrapper.events) == 3
        assert history == h0
        assert state == s0


@pytest.mark.skipif(os.cpu_count() < 2, reason="process chaos wants 2+ cores")
class TestFaultMatrixProcess:
    """The same contract over real processes: kills are SIGKILL, drops
    burn real (tiny) deadlines.  Two cells, not the full matrix — the
    chaos layer is transport-agnostic and Local ≡ Process is already a
    parity gate."""

    @pytest.mark.parametrize(
        "kind,op", [("kill", "compute"), ("delay", "gp")], ids=["kill-bp", "delay-gp"]
    )
    def test_faulted_equals_unfaulted_bitwise(self, unfaulted, kind, op):
        wrapper = ChaosTransport(
            "process", faults=[Fault(kind, rank=1, op=op, nth=1)]
        )
        history, state, _ = _run(wrapper)
        h0, s0 = unfaulted
        assert [e.kind for e in wrapper.events] == [kind]
        assert history == h0
        assert state == s0


class TestAdaCompRecovery:
    def test_residual_reset_is_deterministic(self):
        """AdaComp faulted runs are not unfaulted-bitwise (the rebuilt
        rank's residuals restart from the boundary, not from genesis) —
        but two identical fault schedules must reproduce each other
        bitwise, which is what makes chaos runs debuggable."""
        spec = [Fault("kill", rank=1, op="compute", nth=2)]
        h1, s1, _ = _run(ChaosTransport("local", faults=spec), codec="adacomp")
        h2, s2, _ = _run(ChaosTransport("local", faults=spec), codec="adacomp")
        assert h1 == h2
        assert s1 == s2

    def test_adacomp_faulted_still_trains(self):
        history, _, strategy = _run(
            ChaosTransport("local", faults=[Fault("kill", rank=1, op="compute", nth=1)]),
            codec="adacomp",
        )
        assert np.isfinite(history.train_loss).all()
        assert strategy.comm.totals()["rebuilds"] >= 1


class TestPermanentLoss:
    def test_forfeit_degrades_to_serial_below_min_workers(self):
        """With no rebuild budget, the first kill permanently forfeits
        the rank; a 2-rank world then drops below the floor and degrades
        to serial with a warning instead of aborting the fit."""
        wrapper = ChaosTransport(
            "local", faults=[Fault("kill", rank=1, op="compute", nth=1)]
        )
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            history, _, strategy = _run(wrapper, max_rebuilds=0)
        assert strategy._serial
        assert strategy._active == [0]
        assert np.isfinite(history.train_loss).all()
        forfeits = [f for f in strategy.fault_log if f["kind"] == "forfeit"]
        assert [f["rank"] for f in forfeits] == [1]

    def test_three_rank_world_reshards_over_survivors(self):
        """Losing one of three ranks re-shards over the other two (above
        the default floor of 2) and keeps training parallel."""
        wrapper = ChaosTransport(
            "local", faults=[Fault("kill", rank=2, op="compute", nth=1)]
        )
        with pytest.warns(RuntimeWarning, match="permanently lost"):
            history, _, strategy = _run(wrapper, workers=3, max_rebuilds=0)
        assert not strategy._serial
        assert strategy._active == [0, 1]
        assert np.isfinite(history.train_loss).all()

    def test_min_workers_floor_is_honoured(self):
        wrapper = ChaosTransport(
            "local", faults=[Fault("kill", rank=2, op="compute", nth=1)]
        )
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            _, _, strategy = _run(wrapper, workers=3, max_rebuilds=0, min_workers=3)
        assert strategy._serial

    def test_forfeited_runs_reproduce_each_other(self):
        spec = lambda: ChaosTransport(  # noqa: E731 - tiny local fixture
            "local", faults=[Fault("kill", rank=1, op="compute", nth=3)]
        )
        h1, s1, _ = _run(spec(), max_rebuilds=0)
        h2, s2, _ = _run(spec(), max_rebuilds=0)
        assert h1 == h2
        assert s1 == s2


class TestChaosTransportUnit:
    """The injector itself, against a raw transport."""

    class EchoWorker:
        def __init__(self, rank):
            self.rank = rank

        def handle(self, cmd):
            reply = {"rank": self.rank, "value": cmd.get("value")}
            if "seq" in cmd:
                reply["seq"] = cmd["seq"]
            return reply

    @staticmethod
    def _factory(rank):
        return TestChaosTransportUnit.EchoWorker(rank)

    def _chaos(self, **kwargs):
        wrapper = ChaosTransport("local", **kwargs)
        wrapper.bind_world(2)
        wrapper.start(self._factory)
        return wrapper

    def test_kill_raises_worker_died_and_respawn_recovers(self):
        wrapper = self._chaos(faults=[Fault("kill", rank=1)])
        wrapper.submit(1, {"op": "echo", "value": 7, "seq": 0})
        with pytest.raises(WorkerDied):
            wrapper.collect(1)
        assert not wrapper.alive(1)
        wrapper.respawn_rank(1)
        wrapper.submit(1, {"op": "echo", "value": 8, "seq": 1})
        assert wrapper.collect(1)["value"] == 8

    def test_delay_parks_then_delivers(self):
        wrapper = self._chaos(faults=[Fault("delay", rank=1)])
        wrapper.submit(1, {"op": "echo", "value": 7, "seq": 0})
        with pytest.raises(WorkerTimeout):
            wrapper.collect(1)
        assert wrapper.collect(1)["value"] == 7  # the parked real reply

    def test_drop_times_out_until_next_submit(self):
        wrapper = self._chaos(faults=[Fault("drop", rank=1)])
        wrapper.submit(1, {"op": "echo", "value": 7, "seq": 0})
        for _ in range(3):  # retries fail fast, no deadline burned
            with pytest.raises(WorkerTimeout):
                wrapper.collect(1)
        wrapper.submit(1, {"op": "echo", "value": 8, "seq": 1})
        assert wrapper.collect(1)["value"] == 8

    def test_corrupt_travels_the_real_crc_path(self):
        wrapper = self._chaos(faults=[Fault("corrupt", rank=1)])
        wrapper.submit(1, {"op": "echo", "value": 7, "seq": 0})
        with pytest.raises(PayloadCorrupt):
            wrapper.collect(1)

    def test_duplicate_delivers_then_replays_stale(self):
        wrapper = self._chaos(faults=[Fault("duplicate", rank=1)])
        wrapper.submit(1, {"op": "echo", "value": 7, "seq": 0})
        first = wrapper.collect(1)
        assert first["seq"] == 0
        wrapper.submit(1, {"op": "echo", "value": 8, "seq": 1})
        stale = wrapper.collect(1)
        assert stale["seq"] == 0  # the duplicate, in front of the queue
        assert wrapper.collect(1)["seq"] == 1

    def test_rule_list_is_not_consumed_across_runs(self):
        rules = [Fault("delay", rank=1, nth=1)]
        for _ in range(2):  # same list twice: nth must not be eaten
            wrapper = self._chaos(faults=rules)
            wrapper.submit(1, {"op": "echo", "value": 0, "seq": 0})
            wrapper.collect(1)
            wrapper.submit(1, {"op": "echo", "value": 1, "seq": 1})
            with pytest.raises(WorkerTimeout):
                wrapper.collect(1)
            assert wrapper.collect(1)["value"] == 1

    def test_fault_counts_summarize_ledger(self):
        wrapper = self._chaos(faults=[Fault("delay", rank=1), Fault("duplicate", rank=1)])
        wrapper.submit(1, {"op": "echo", "value": 0, "seq": 0})
        with pytest.raises(WorkerTimeout):
            wrapper.collect(1)
        wrapper.collect(1)
        wrapper.submit(1, {"op": "echo", "value": 1, "seq": 1})
        wrapper.collect(1)
        assert sorted(event.kind for event in wrapper.events) == ["delay", "duplicate"]

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("gamma-ray")

    def test_late_world_binding(self):
        late = ChaosTransport("local")
        assert late.world_size is None
        assert resolve_transport(late, 2) is late
        assert late.world_size == 2
        with pytest.raises(ValueError, match="rebind"):
            late.bind_world(4)

    def test_corrupt_frame_defeats_the_crc(self):
        frame = frame_payload({"hello": "world"})
        assert unframe_payload(frame) == {"hello": "world"}
        with pytest.raises(PayloadCorrupt):
            unframe_payload(corrupt_frame(frame))


class TestRecoveryAccounting:
    def test_recovery_bytes_stay_out_of_sync_bytes(self, unfaulted):
        """GP epochs must still account zero steady-state comm even when
        recovery shipped state mid-epoch — the fault columns are kept
        separate precisely so the comm story stays honest."""
        wrapper = ChaosTransport(
            "local", faults=[Fault("kill", rank=1, op="compute", nth=1)]
        )
        _, _, strategy = _run(wrapper)
        clean = _run("local")[2]
        totals = strategy.comm.totals()
        assert totals["recovery_bytes"] > 0
        assert totals["sync_bytes"] == clean.comm.totals()["sync_bytes"]
        assert totals["recovery_s"] > 0

    def test_clean_runs_report_zero_faults(self):
        _, _, strategy = _run("local")
        totals = strategy.comm.totals()
        assert totals["faults"] == 0
        assert totals["retries"] == 0
        assert totals["rebuilds"] == 0
        assert totals["recovery_bytes"] == 0
