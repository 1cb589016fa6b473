"""ReliableTransport against a scripted inner transport and a counting
clock: every rung of the recovery ladder, the deterministic-fault abort
and the wall budget — no real sleeps, no processes, no wall-clock."""

from collections import deque

import numpy as np
import pytest

from repro import nn, obs
from repro.core import HeuristicSchedule
from repro.data import synthetic_images
from repro.dist import (
    ChaosTransport,
    DeterministicFault,
    PayloadCorrupt,
    RankLost,
    ReliableTransport,
    Transport,
    TransportError,
    TransportWrapper,
    WorkerDied,
    WorkerError,
    WorkerTimeout,
    ddp_engine,
    dp_strategy,
    shutdown,
)
from repro.dist import reliable
from repro.nn.losses import CrossEntropyLoss, accuracy

STATE = {"w": np.zeros(8, dtype=np.float32)}  # 32 bytes of "sync state"
BUDGET = reliable.RECOVERY_BUDGET_DEADLINES * Transport.timeout


class CountingClock:
    """Monotonic fake: every read ticks; waits move it by hand."""

    def __init__(self, tick=0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


class ScriptedTransport(Transport):
    """Two-rank fabric whose rank 1 echoes commands, except where the
    ``script`` (one outcome per collect, ``"ok"`` once exhausted) says
    otherwise.  Waiting costs fake-clock time, never wall-clock."""

    def __init__(self, clock, script=(), latency=0.0, silent_after_respawn=False):
        super().__init__(2)
        self.clock = clock
        self.script = deque(script)
        self.latency = latency
        self.silent_after_respawn = silent_after_respawn
        self.queue = deque()
        self.dead = False
        self.respawns = 0
        self.trace = []  # ("submit", op, reset_codec) / ("kill",) / ("respawn",)
        self.deadlines = []  # the timeout= of every collect

    def start(self, factory):
        self.started = True

    def submit(self, rank, cmd):
        if self.dead:
            raise WorkerDied("dead", rank=rank)
        self.trace.append(("submit", cmd["op"], cmd.get("reset_codec")))
        self.queue.append(cmd)

    def _wait(self, timeout):
        self.clock.now += self.timeout if timeout is None else timeout

    def collect(self, rank, timeout=None):
        self.deadlines.append(timeout)
        if self.dead:
            raise WorkerDied("dead", rank=rank)
        outcome = self.script.popleft() if self.script else "ok"
        if self.silent_after_respawn and self.respawns:
            outcome = "timeout"
        if outcome == "stale":
            return {"seq": -7}
        if outcome == "timeout":
            self._wait(timeout)
            raise WorkerTimeout("silent", rank=rank)
        if outcome == "died":
            self.kill_rank(rank)
            raise WorkerDied("crashed", rank=rank)
        cmd = self.queue.popleft()
        if outcome == "slow_corrupt":
            self._wait(min(100.0, self.timeout if timeout is None else timeout))
            raise PayloadCorrupt("bad crc", rank=rank)
        if outcome == "worker_error":
            return {"fault": "worker_error", "error": "boom", "seq": cmd["seq"]}
        self.clock.now += self.latency
        return {"op": cmd["op"], "seq": cmd["seq"]}

    def alive(self, rank):
        return not self.dead

    def kill_rank(self, rank):
        self.trace.append(("kill",))
        self.dead = True
        self.queue.clear()

    def respawn_rank(self, rank):
        self.trace.append(("respawn",))
        self.dead = False
        self.respawns += 1
        self.queue.clear()

    def close(self):
        self.started = False


@pytest.fixture
def clock():
    fake = CountingClock()
    previous = obs.set_tracer(obs.Tracer(clock=fake))
    yield fake
    obs.set_tracer(previous)


class Ledger:
    """A sink that keeps what the strategy would book."""

    def __init__(self):
        self.entries = []
        self.counts = {}

    def __call__(self, entry, **counts):
        if entry is not None:
            self.entries.append(entry)
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def _reliable(clock, script=(), **kwargs):
    inner_kwargs = {
        key: kwargs.pop(key) for key in ("latency", "silent_after_respawn") if key in kwargs
    }
    inner = ScriptedTransport(clock, script, **inner_kwargs)
    transport = ReliableTransport(inner, retry_backoff=0.0, **kwargs)
    transport.sink = Ledger()
    transport.start(None)
    return transport, inner


def _roundtrip(transport, cmd):
    transport.submit(1, cmd)
    return transport.collect(1)


def _warm(transport):
    """One boundary sync and two accepted commands, all answered."""
    _roundtrip(transport, {"op": "sync", "state": STATE, "reset_codec": False})
    _roundtrip(transport, {"op": "compute", "tag": "A"})
    _roundtrip(transport, {"op": "apply", "tag": "B"})


class TestLadder:
    def test_stale_seq_is_deduplicated(self, clock):
        transport, _ = _reliable(clock, ["stale", "stale", "ok"])
        assert _roundtrip(transport, {"op": "compute"})["op"] == "compute"
        assert transport.sink.counts == {}

    def test_timeout_is_retried_then_succeeds(self, clock):
        transport, inner = _reliable(clock, ["timeout", "ok"])
        assert _roundtrip(transport, {"op": "compute"})["op"] == "compute"
        assert transport.sink.counts == {"faults": 1, "retries": 1}
        assert ("kill",) not in inner.trace

    def test_retry_exhaustion_rebuilds_and_replays_in_order(self, clock):
        transport, inner = _reliable(clock)
        _warm(transport)
        inner.trace.clear()
        inner.script.extend(["timeout"] * 3)  # 1 + max_retries: the rank is wedged
        assert _roundtrip(transport, {"op": "compute", "tag": "C"})["op"] == "compute"
        assert inner.trace == [
            ("submit", "compute", None),  # the faulted command
            ("kill",),
            ("respawn",),
            ("submit", "sync", True),  # boundary re-sync resets the codec
            ("submit", "compute", None),  # replay A ...
            ("submit", "apply", None),  # ... then B, in accepted order
            ("submit", "compute", None),  # resubmit C
        ]
        counts = transport.sink.counts
        assert (counts["faults"], counts["retries"], counts["rebuilds"]) == (3, 2, 1)
        assert counts["recovery_bytes"] == STATE["w"].nbytes
        assert counts["recovery_s"] > 0
        assert [e["attempt"] for e in transport.sink.entries] == [0, 0, 0]
        # the recovered command was accepted once: a second rebuild replays A, B, C
        inner.trace.clear()
        inner.script.append("died")
        _roundtrip(transport, {"op": "gp"})
        assert [t[1] for t in inner.trace if t[0] == "submit"] == [
            "gp", "sync", "compute", "apply", "compute", "gp",
        ]

    def test_new_sync_moves_the_boundary_and_empties_the_log(self, clock):
        transport, inner = _reliable(clock)
        _warm(transport)
        _roundtrip(transport, {"op": "sync", "state": STATE, "reset_codec": False})
        inner.trace.clear()
        inner.script.append("died")
        _roundtrip(transport, {"op": "gp"})
        assert [t[1] for t in inner.trace if t[0] == "submit"] == ["gp", "sync", "gp"]

    def test_worker_error_is_never_retried(self, clock):
        transport, inner = _reliable(clock, ["worker_error"])
        transport.submit(1, {"op": "compute"})
        with pytest.raises(WorkerError, match="boom"):
            transport.collect(1)
        assert transport.sink.counts == {}
        assert ("kill",) not in inner.trace

    def test_rank_lost_after_max_rebuilds(self, clock):
        transport, inner = _reliable(clock, max_rebuilds=1)
        _warm(transport)
        inner.script.extend(["died", "died"])  # the fault, then the rebuild's re-sync
        transport.submit(1, {"op": "compute"})
        with pytest.raises(RankLost):
            transport.collect(1)
        assert transport.sink.counts["rebuilds"] == 1
        assert [e["kind"] for e in transport.sink.entries] == ["died", "died"]
        assert [e["attempt"] for e in transport.sink.entries] == [0, 1]
        assert inner.dead  # retired ranks are not left running
        with pytest.raises(RankLost):
            transport.submit(1, {"op": "compute"})

    def test_rank_dead_at_submit_is_rebuilt_by_the_collect(self, clock):
        transport, inner = _reliable(clock)
        _warm(transport)
        inner.kill_rank(1)
        transport.submit(1, {"op": "gp"})  # no raise: exactly-once upward
        assert transport.collect(1)["op"] == "gp"
        assert transport.sink.counts["rebuilds"] == 1
        assert [e["kind"] for e in transport.sink.entries] == ["died"]

    def test_second_submit_before_collect_is_a_protocol_error(self, clock):
        transport, _ = _reliable(clock)
        transport.submit(1, {"op": "compute"})
        with pytest.raises(TransportError, match="uncollected"):
            transport.submit(1, {"op": "compute"})

    def test_chaos_composes_under_reliable(self):
        transport = ReliableTransport(ChaosTransport("local"))
        transport.bind_world(3)
        assert transport.world_size == 3
        assert transport.timeout == Transport.timeout


class TestDeadlines:
    def test_default_until_answered_then_twenty_times_slowest(self, clock):
        transport, inner = _reliable(clock, latency=0.5)
        _roundtrip(transport, {"op": "compute"})
        _roundtrip(transport, {"op": "compute"})
        assert inner.deadlines[0] is None  # the inner transport's own default
        assert inner.deadlines[1] == pytest.approx(reliable.DEADLINE_FACTOR * 0.5, rel=0.01)

    def test_floor_is_seconds_and_ceiling_is_the_inner_default(self, clock):
        fast, inner = _reliable(clock, latency=0.0)
        _roundtrip(fast, {"op": "compute"})
        _roundtrip(fast, {"op": "compute"})
        assert inner.deadlines[1] == reliable.DEADLINE_FLOOR_S
        slow, inner = _reliable(clock, latency=30.0)
        _roundtrip(slow, {"op": "compute"})
        _roundtrip(slow, {"op": "compute"})
        assert inner.deadlines[1] == Transport.timeout


class TestDeterministicFault:
    def test_silent_respawn_aborts_after_one_rebuild(self, clock):
        transport, inner = _reliable(clock, silent_after_respawn=True)
        _warm(transport)
        started = clock.now
        inner.script.append("died")
        transport.submit(1, {"op": "compute"})
        with pytest.raises(DeterministicFault) as info:
            transport.collect(1)
        assert transport.sink.counts["rebuilds"] == 1
        assert inner.respawns == 1
        assert clock.now - started <= BUDGET
        err = info.value
        assert (err.rank, err.op) == (1, "compute")
        assert [(e["kind"], e["attempt"]) for e in err.ledger] == [("died", 0), ("timeout", 1)]
        assert "rank 1 op compute died attempt 0" in str(err)
        assert "never answered its boundary re-sync" in str(err)

    def test_recovery_never_outlasts_the_wall_budget(self, clock):
        # Alive but never right: every reply arrives late and corrupt, so
        # neither the retry rung nor the silent-respawn rule ever fires.
        transport, inner = _reliable(clock, max_rebuilds=1000)
        _warm(transport)
        started = clock.now
        inner.script.extend(["slow_corrupt"] * 1000)
        transport.submit(1, {"op": "compute"})
        with pytest.raises(DeterministicFault, match="wall budget") as info:
            transport.collect(1)
        assert BUDGET <= clock.now - started <= BUDGET + 1.0
        # each fault burned one (floored) adaptive deadline of the budget
        faults = transport.sink.counts["faults"]
        assert len(info.value.ledger) == faults == BUDGET / reliable.DEADLINE_FLOOR_S


# ----------------------------------------------------------------------
# The same abort, end to end through a fit.
# ----------------------------------------------------------------------
class GoesSilent(TransportWrapper):
    """Local fabric whose rank 1 crashes at its third collect and, once
    respawned, accepts commands but never answers again."""

    def __init__(self, clock):
        super().__init__("local")
        self.clock = clock
        self.collects = 0
        self.respawned = False

    def submit(self, rank, cmd):
        self._require_inner().submit(rank, cmd)

    def collect(self, rank, timeout=None):
        self.collects += 1
        if self.respawned:
            self.clock.now += self.timeout if timeout is None else timeout
            raise WorkerTimeout(f"rank {rank} is silent", rank=rank)
        if self.collects == 3:
            self.kill_rank(rank)
            raise WorkerDied(f"rank {rank} crashed", rank=rank)
        return self._require_inner().collect(rank, timeout=timeout)

    def respawn_rank(self, rank):
        super().respawn_rank(rank)
        self.respawned = True


def test_fit_raises_the_ledger_instead_of_degrading(clock):
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 3, rng=rng),
    )
    split = synthetic_images(3, 32, 16, image_size=8, seed=0)
    engine = ddp_engine(
        model,
        CrossEntropyLoss(),
        workers=2,
        transport=ReliableTransport(GoesSilent(clock), retry_backoff=0.0),
        lr=0.05,
        metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
    )
    started = clock.now
    try:
        with pytest.raises(DeterministicFault) as info:
            engine.fit(
                lambda: split.train.batches(16, rng=np.random.default_rng(1)),
                lambda: split.val.batches(16, shuffle=False),
                2,
            )
        strategy = dp_strategy(engine)
        assert strategy.comm.totals()["rebuilds"] == 1
        assert not strategy._serial and strategy._active == [0, 1]  # no silent degrade
        assert clock.now - started <= BUDGET
        assert info.value.rank == 1 and info.value.op == "apply"
        assert "rank 1 op apply died attempt 0" in str(info.value)
        assert [f["kind"] for f in strategy.fault_log] == ["died", "timeout"]
    finally:
        shutdown(engine)
