"""Transport substrate tests: request/reply protocol, Local/Process
interchangeability, and the fault surface (framing, deadlines, death
detection, lifecycle hardening).  The rank-ordered reduction lives in
``decode_sum`` (``test_codec.py``)."""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.dist import (
    LocalTransport,
    PayloadCorrupt,
    ProcessTransport,
    Transport,
    WorkerDied,
    WorkerTimeout,
    corrupt_frame,
    frame_payload,
    resolve_transport,
    unframe_payload,
)

RNG = np.random.default_rng(13)


class ArithmeticWorker:
    """Minimal picklable worker: deterministic replies keyed on rank."""

    def __init__(self, rank):
        self.rank = rank
        self.calls = 0

    def handle(self, cmd):
        self.calls += 1
        op = cmd.get("op")
        if op == "add":
            return {"rank": self.rank, "value": cmd["value"] + self.rank}
        if op == "scale":
            return {"rank": self.rank, "array": cmd["array"] * self.rank}
        if op == "calls":
            return {"rank": self.rank, "calls": self.calls}
        return {"ok": True, "rank": self.rank}


class MisbehavingWorker:
    """Picklable worker with every way to go wrong on demand."""

    def __init__(self, rank):
        self.rank = rank

    def handle(self, cmd):
        op = cmd.get("op")
        if op == "boom":
            raise ValueError("intentional failure")
        if op == "sleep":
            time.sleep(cmd["seconds"])
            return {"rank": self.rank, "slept": cmd["seconds"]}
        if op == "exit":  # hard death: no reply, no cleanup
            os._exit(3)
        return {"ok": True, "rank": self.rank}


def _factory(rank):
    return ArithmeticWorker(rank)


def _misbehaving_factory(rank):
    return MisbehavingWorker(rank)


@pytest.fixture(params=["local", "process"])
def transport(request):
    t = resolve_transport(request.param, 3)
    t.start(_factory)
    yield t
    t.close()


class TestProtocol:
    def test_submit_collect_round_trip(self, transport):
        transport.submit(1, {"op": "add", "value": 10})
        transport.submit(2, {"op": "add", "value": 10})
        assert transport.collect(1) == {"rank": 1, "value": 11}
        assert transport.collect(2) == {"rank": 2, "value": 12}

    def test_replies_are_fifo_per_rank(self, transport):
        transport.submit(1, {"op": "add", "value": 1})
        transport.submit(1, {"op": "add", "value": 100})
        assert transport.collect(1)["value"] == 2
        assert transport.collect(1)["value"] == 101

    def test_every_rank_answers_its_own_command(self, transport):
        for rank in transport.worker_ranks:
            transport.submit(rank, {"op": "add", "value": 0})
        replies = [transport.collect(rank) for rank in transport.worker_ranks]
        assert [r["rank"] for r in replies] == [1, 2]
        assert [r["value"] for r in replies] == [1, 2]

    def test_worker_call_counts_advance_in_lockstep(self, transport):
        for op in ("ping", "calls"):
            for rank in transport.worker_ranks:
                transport.submit(rank, {"op": op})
            replies = [transport.collect(rank) for rank in transport.worker_ranks]
        assert [r["calls"] for r in replies] == [2, 2]

    def test_arrays_cross_intact(self, transport):
        array = RNG.standard_normal(64).astype(np.float32)
        transport.submit(2, {"op": "scale", "array": array})
        reply = transport.collect(2)
        assert reply["array"].tobytes() == (array * 2).tobytes()

    def test_worker_state_persists_across_commands(self, transport):
        transport.submit(1, {"op": "add", "value": 0})
        transport.collect(1)
        transport.submit(1, {"op": "calls"})
        assert transport.collect(1)["calls"] == 2

    def test_close_is_idempotent(self, transport):
        transport.close()
        transport.close()
        assert not transport.started


class TestResolveTransport:
    def test_names(self):
        assert isinstance(resolve_transport(None, 2), LocalTransport)
        assert isinstance(resolve_transport("local", 2), LocalTransport)
        assert isinstance(resolve_transport("process", 2), ProcessTransport)

    def test_instance_pass_through_checks_world_size(self):
        t = LocalTransport(4)
        assert resolve_transport(t, 4) is t
        with pytest.raises(ValueError, match="world_size"):
            resolve_transport(t, 2)

    def test_rejects_unknown(self):
        for name in ("mpi", "chaos"):  # a ChaosTransport is passed as an instance
            with pytest.raises(ValueError, match="expected 'local', 'process'"):
                resolve_transport(name, 2)
        with pytest.raises(TypeError):
            resolve_transport(3.5, 2)
        with pytest.raises(ValueError):
            Transport(0)


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "add", "array": RNG.standard_normal(16).astype(np.float32)}
        decoded = unframe_payload(frame_payload(payload))
        assert decoded["op"] == "add"
        assert decoded["array"].tobytes() == payload["array"].tobytes()

    def test_flipped_byte_fails_crc(self):
        with pytest.raises(PayloadCorrupt, match="CRC32"):
            unframe_payload(corrupt_frame(frame_payload({"op": "x"})))

    def test_bad_magic(self):
        frame = frame_payload({"op": "x"})
        with pytest.raises(PayloadCorrupt, match="magic"):
            unframe_payload(b"NOPE" + frame[4:])

    def test_truncation(self):
        frame = frame_payload({"op": "x"})
        with pytest.raises(PayloadCorrupt, match="truncated"):
            unframe_payload(frame[:6])
        with pytest.raises(PayloadCorrupt, match="promised"):
            unframe_payload(frame[:-3])

    def test_error_carries_rank(self):
        with pytest.raises(PayloadCorrupt) as info:
            unframe_payload(b"", rank=2)
        assert info.value.rank == 2


class TestWorkerErrorRelay:
    @pytest.mark.parametrize("name", ["local", "process"])
    def test_handler_exception_becomes_fault_reply(self, name):
        with resolve_transport(name, 2) as t:
            t.start(_misbehaving_factory)
            t.submit(1, {"op": "boom", "seq": 7})
            reply = t.collect(1)
        assert reply["fault"] == "worker_error"
        assert "intentional failure" in reply["error"]
        assert reply["seq"] == 7  # the strategy needs it to pair the reply

    def test_worker_survives_its_own_error(self):
        with resolve_transport("process", 2) as t:
            t.start(_misbehaving_factory)
            t.submit(1, {"op": "boom"})
            assert t.collect(1)["fault"] == "worker_error"
            t.submit(1, {"op": "ping"})
            assert t.collect(1)["ok"]


class TestDeadlinesAndDeath:
    def test_local_collect_without_reply_times_out(self):
        with LocalTransport(2) as t:
            t.start(_factory)
            with pytest.raises(WorkerTimeout):
                t.collect(1)

    def test_local_killed_rank_raises_on_both_sides(self):
        with LocalTransport(2) as t:
            t.start(_factory)
            t.kill_rank(1)
            assert not t.alive(1)
            with pytest.raises(WorkerDied):
                t.submit(1, {"op": "ping"})
            with pytest.raises(WorkerDied):
                t.collect(1)
            t.respawn_rank(1)
            t.submit(1, {"op": "add", "value": 1})
            assert t.collect(1)["value"] == 2

    def test_process_collect_deadline_is_bounded(self):
        with ProcessTransport(2, timeout=0.2) as t:
            t.start(_misbehaving_factory)
            t.submit(1, {"op": "sleep", "seconds": 30})
            started = time.monotonic()
            with pytest.raises(WorkerTimeout):
                t.collect(1)
            assert time.monotonic() - started < 5.0
            t.close(timeout=0.5)  # escalation handles the still-busy rank

    def test_process_delayed_reply_collected_on_retry(self):
        with ProcessTransport(2) as t:
            t.start(_misbehaving_factory)
            t.submit(1, {"op": "sleep", "seconds": 0.5})
            with pytest.raises(WorkerTimeout):
                t.collect(1, timeout=0.05)
            assert t.collect(1, timeout=30)["slept"] == 0.5

    def test_process_hard_death_detected_within_heartbeats(self):
        with ProcessTransport(2) as t:
            t.start(_misbehaving_factory)
            t.submit(1, {"op": "exit"})
            started = time.monotonic()
            with pytest.raises(WorkerDied):
                t.collect(1)
            assert time.monotonic() - started < 30.0  # not the full deadline
            t._procs[1].join(timeout=5)  # EOF beats the reaper; settle it
            assert not t.alive(1)

    def test_process_kill_respawn_round_trip(self):
        with ProcessTransport(2) as t:
            t.start(_factory)
            t.kill_rank(1)
            assert not t.alive(1)
            with pytest.raises(WorkerDied):
                t.submit(1, {"op": "ping"})
                t.collect(1)
            t.respawn_rank(1)
            assert t.alive(1)
            t.submit(1, {"op": "add", "value": 5})
            assert t.collect(1)["value"] == 6

    def test_process_worker_reports_corrupt_command(self):
        with ProcessTransport(2) as t:
            t.start(_factory)
            # Garbage straight onto the pipe: the worker must answer with
            # a typed fault record, not crash or hang.
            t._conns[1].send_bytes(b"this is not a frame")
            reply = t.collect(1)
            assert reply["fault"] == "payload_corrupt"
            t.submit(1, {"op": "ping"})
            assert t.collect(1)["ok"]  # still serving


class TestLifecycle:
    def test_close_escalation_reaps_hung_worker(self):
        t = ProcessTransport(2)
        t.start(_misbehaving_factory)
        proc = t._procs[1]
        t.submit(1, {"op": "sleep", "seconds": 60})
        started = time.monotonic()
        t.close(timeout=0.5)
        assert time.monotonic() - started < 10.0
        assert not proc.is_alive()
        assert not t.started

    def test_no_children_leak_after_exception(self):
        with pytest.raises(RuntimeError, match="mid-fit crash"):
            with ProcessTransport(2) as t:
                t.start(_factory)
                raise RuntimeError("mid-fit crash")
        leftovers = [
            p for p in mp.active_children() if p.name.startswith("repro-dist-rank")
        ]
        assert leftovers == []

    def test_double_close_after_failure_is_safe(self):
        t = ProcessTransport(2)
        t.start(_factory)
        t.kill_rank(1)
        t.close()
        t.close()
        assert not t.started


class TestLocalProcessEquivalence:
    def test_same_replies_for_same_commands(self):
        local = resolve_transport("local", 3)
        proc = resolve_transport("process", 3)
        local.start(_factory)
        proc.start(_factory)
        try:
            array = RNG.standard_normal(16).astype(np.float32)
            for transport in (local, proc):
                transport.submit(1, {"op": "scale", "array": array})
                transport.submit(2, {"op": "add", "value": 5})
            r_local = [local.collect(1), local.collect(2)]
            r_proc = [proc.collect(1), proc.collect(2)]
            assert r_local[0]["array"].tobytes() == r_proc[0]["array"].tobytes()
            assert r_local[1] == r_proc[1]
        finally:
            local.close()
            proc.close()
