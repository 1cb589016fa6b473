"""Deterministic fault injection for the data-parallel transport layer.

:class:`ChaosTransport` wraps any registered transport and injects
faults from a *reproducible schedule*, so every distributed
failure mode is a test fixture, not a flake.  The five injected kinds
mirror the fault taxonomy in :mod:`repro.dist.transport`:

``kill``
    The worker rank really dies — ``kill_rank`` on the inner transport
    (``Process``: ``SIGKILL``; ``Local``: the replica object is
    dropped), any in-flight reply is drained away, and
    :class:`WorkerDied` is raised.  Recovery must respawn.
``delay``
    The reply exists but arrives late: the first collect raises
    :class:`WorkerTimeout` while the real reply is parked; the *retry*
    collect delivers it.  Exercises the retry-with-backoff path without
    depending on wall-clock timing.
``drop``
    The reply is consumed and discarded; every subsequent collect for
    that command raises :class:`WorkerTimeout` — a permanently lost
    payload, the timeout-escalation fixture.
``corrupt``
    The real reply is run through the genuine CRC32 wire framing with
    one byte flipped (:func:`corrupt_frame`), so the *actual detection
    code path* raises :class:`PayloadCorrupt` — not a simulated error.
``duplicate``
    The reply is delivered normally, then a stale copy of it is queued
    in front of the rank's future replies — the at-least-once-delivery
    fixture the sequence-number dedup must absorb.

Determinism: injections are decided per *collect event* by an explicit
:class:`Fault` rule list (``rank``/``op``/``nth`` targeted).  No
injection consults the clock, so a chaos run's fault sequence is a pure
function of (rules, traffic) — which is what lets the acceptance tests
assert *bitwise* equality between faulted and unfaulted runs.

``ChaosTransport`` is passed as a transport instance::

    from repro.dist import ChaosTransport, Fault, ddp_engine

    chaos = ChaosTransport("process", faults=[
        Fault("kill", rank=1, op="compute", nth=3),
    ])
    engine = ddp_engine(model, loss_fn, workers=2, transport=chaos)

The wrapper is built world-size-late (``resolve_transport`` binds it),
so the same chaos spec drops into any ``workers=`` count.  The recovery
layer (:class:`~repro.dist.reliable.ReliableTransport`) always sits
*above* the chaos: ``strategy → reliable → chaos → local/process``.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .transport import (
    PayloadCorrupt,
    Transport,
    TransportError,
    TransportWrapper,
    WorkerDied,
    WorkerTimeout,
    frame_payload,
    unframe_payload,
)

#: Injection kinds.
FAULT_KINDS = ("kill", "delay", "drop", "corrupt", "duplicate")


def corrupt_frame(frame: bytes) -> bytes:
    """Flip one byte in the middle of a CRC32 frame's body, so
    :func:`~repro.dist.transport.unframe_payload` must detect it."""
    position = min(max(len(frame) - 1, 0) // 2 + 8, len(frame) - 1)
    corrupted = bytearray(frame)
    corrupted[position] ^= 0xFF
    return bytes(corrupted)


@dataclass
class Fault:
    """One targeted injection rule.

    Fires on the ``nth`` (0-based) *collect event* matching ``rank``
    and ``op`` (the submitted command's ``op``); ``None`` wildcards.
    Each rule fires exactly once.
    """

    kind: str
    rank: Optional[int] = None
    op: Optional[str] = None
    nth: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


@dataclass
class FaultEvent:
    """One injection that actually happened (the chaos ledger's unit)."""

    kind: str
    rank: int
    op: str
    collect_index: int


class ChaosTransport(TransportWrapper):
    """Fault-injecting wrapper over any transport.

    Parameters
    ----------
    inner:
        Transport spec the chaos wraps — ``"local"``, ``"process"`` or
        an instance.  Name specs are resolved when the world size is
        known (:meth:`bind_world`, called by ``resolve_transport``).
    faults:
        Explicit :class:`Fault` rules (deterministic targeting).
    """

    def __init__(
        self,
        inner: Union[str, Transport] = "local",
        faults: Iterable[Fault] = (),
    ) -> None:
        # Own copies: matching consumes ``nth``, and the same rule list
        # must be reusable across runs (the determinism tests build two
        # identical chaos schedules from one spec).
        self.faults: list[Fault] = [copy.copy(rule) for rule in faults]
        self._fired: set[int] = set()  # indices into self.faults
        self._collect_index = 0
        #: Injections that actually happened, in order — test probe.
        self.events: list[FaultEvent] = []
        # Per-rank: ops of outstanding (submitted, uncollected) cmds.
        self._outstanding: dict[int, deque] = {}
        # Per-rank: parked replies (delay retries, duplicate stales).
        self._parked: dict[int, deque] = {}
        # Per-rank: a reply was dropped and nothing new submitted yet —
        # retry collects must time out instantly, not re-burn deadlines.
        self._lost: dict[int, bool] = {}
        super().__init__(inner)

    # ------------------------------------------------------------------
    # Lifecycle: delegate, keeping the per-rank injection state in step.
    # ------------------------------------------------------------------
    def start(self, factory) -> None:
        super().start(factory)
        for rank in self.worker_ranks:
            self._outstanding.setdefault(rank, deque())
            self._parked.setdefault(rank, deque())
            self._lost.setdefault(rank, False)

    def respawn_rank(self, rank: int) -> None:
        super().respawn_rank(rank)
        # The rank's in-flight traffic died with it.
        self._outstanding[rank] = deque()
        self._parked[rank] = deque()
        self._lost[rank] = False

    def close(self) -> None:
        super().close()
        self._outstanding.clear()
        self._parked.clear()
        self._lost.clear()

    # ------------------------------------------------------------------
    # Injection decision.
    # ------------------------------------------------------------------
    def _decide(self, rank: int, op: str) -> Optional[str]:
        """The fault kind to inject on this collect event, if any."""
        index = self._collect_index
        self._collect_index += 1
        for rule_index, rule in enumerate(self.faults):
            if rule_index in self._fired:
                continue
            if rule.rank is not None and rule.rank != rank:
                continue
            if rule.op is not None and rule.op != op:
                continue
            if rule.nth > 0:
                rule.nth -= 1
                continue
            self._fired.add(rule_index)
            self.events.append(FaultEvent(rule.kind, rank, op, index))
            return rule.kind
        return None

    # ------------------------------------------------------------------
    # The wrapped protocol.
    # ------------------------------------------------------------------
    def submit(self, rank: int, cmd: dict) -> None:
        inner = self._require_inner()
        inner.submit(rank, cmd)
        self._outstanding[rank].append(cmd.get("op", "?"))
        self._lost[rank] = False

    def _inner_collect(self, rank: int, timeout: Optional[float]) -> dict:
        reply = self._require_inner().collect(rank, timeout=timeout)
        if self._outstanding[rank]:
            self._outstanding[rank].popleft()
        return reply

    def collect(self, rank: int, timeout: Optional[float] = None) -> dict:
        # Parked replies (delay retry / duplicate stale) come first —
        # they are already "in the pipe" from the caller's view.
        if self._parked[rank]:
            return self._parked[rank].popleft()
        if self._lost[rank] and not self._outstanding[rank]:
            # The reply to this collect was dropped: nothing will ever
            # arrive until the caller submits again.
            raise WorkerTimeout(
                f"rank {rank}: reply dropped by chaos schedule", rank=rank
            )
        op = self._outstanding[rank][0] if self._outstanding[rank] else "?"
        kind = self._decide(rank, op)
        if kind is None:
            return self._inner_collect(rank, timeout)
        if kind == "kill":
            self._require_inner().kill_rank(rank)
            self._drain(rank)
            raise WorkerDied(
                f"rank {rank} killed by chaos schedule", rank=rank
            )
        if kind == "delay":
            reply = self._inner_collect(rank, timeout)
            self._parked[rank].append(reply)
            raise WorkerTimeout(
                f"rank {rank}: reply delayed by chaos schedule", rank=rank
            )
        if kind == "drop":
            self._inner_collect(rank, timeout)  # consumed, never delivered
            self._lost[rank] = True
            raise WorkerTimeout(
                f"rank {rank}: reply dropped by chaos schedule", rank=rank
            )
        if kind == "corrupt":
            reply = self._inner_collect(rank, timeout)
            # Real detection path: frame the reply, flip a byte, let the
            # CRC machinery reject it.
            unframe_payload(corrupt_frame(frame_payload(reply)), rank=rank)
            raise AssertionError("corrupt_frame slipped past the CRC")
        # duplicate: deliver now, park a stale copy in front of the
        # rank's future replies.
        reply = self._inner_collect(rank, timeout)
        self._parked[rank].append(copy.deepcopy(reply))
        return reply

    def _drain(self, rank: int) -> None:
        """Discard whatever in-flight replies the dead rank left behind
        so the kill is observable identically on every transport (a
        process's reply can survive in the pipe buffer; a local
        worker's sits in the reply queue)."""
        self._parked[rank].clear()
        while self._outstanding[rank]:
            self._outstanding[rank].popleft()
            try:
                self._require_inner().collect(rank, timeout=0.5)
            except TransportError:
                break
