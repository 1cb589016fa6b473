"""Exactly-once delivery over a faulty fabric: the recovery ladder.

:class:`ReliableTransport` wraps any transport the way
:class:`~repro.dist.faults.ChaosTransport` does and presents
*exactly-once* ``submit``/``collect`` upward: every reply it returns is
the one reply to the one outstanding command of that rank, whatever the
fabric underneath lost, delayed, duplicated, corrupted or killed.
:class:`~repro.dist.strategy.DataParallelStrategy` always talks through
one (``strategy → reliable → (chaos →) local/process``), so the
data-parallel math never sees a fabric fault — only, at the very end of
the ladder, a typed :class:`RankLost`.

Every submitted command is stamped with a per-rank sequence number the
replica echoes, and every collect climbs:

1. **Dedup** — a reply whose sequence number is not the outstanding
   command's is a stale duplicate (at-least-once delivery), discarded.
2. **Retry** — :class:`~repro.dist.transport.WorkerTimeout` is
   re-collected up to :data:`MAX_RETRIES` times with linear backoff (a
   delayed reply is simply collected late).
3. **Rebuild** — a dead rank, a corrupt payload or a timeout past the
   retry budget (the wedged rank is killed first) rebuilds the rank
   deterministically: respawn from the pickled factory if dead, re-send
   the retained *boundary* — the last ``sync`` command submitted to the
   rank — with ``reset_codec=True``, replay the rank's accepted-command
   log since that boundary (replicas drift *by design* inside a run, so
   boundary + replay is its exact pre-fault state; the codec reset makes
   the AdaComp residual, the only other per-rank state, deterministic
   too), then resubmit the faulted command.  Under the identity codec
   the rebuilt rank's replies are bitwise the unfaulted run's.
4. **Rank lost** — past ``max_rebuilds`` in one collect the rank is
   killed, retired and :class:`RankLost` raised; what the world does
   about it (re-shard, degrade) is the strategy's policy.

Two aborts keep a *deterministic* fault from burning the whole ladder.
A freshly respawned rank that never answers the boundary re-sync of its
own rebuild will not answer the next one either, and recovery that
outlasts ``RECOVERY_BUDGET_DEADLINES`` inner deadlines is not transient:
both raise :class:`DeterministicFault` carrying the collect's fault
ledger instead of degrading silently.  Per-collect deadlines start at
the inner transport's default and tighten, once a rank has answered, to
``DEADLINE_FACTOR ×`` its slowest submit→reply latency (floored at
``DEADLINE_FLOOR_S`` — seconds, because shared VMs stall).

:class:`~repro.dist.transport.WorkerError` (the replica *application*
raised) is never retried — a bug, not a fabric fault — and propagates.

Accounting goes to ``sink(entry, **counts)`` (the strategy books it into
``CommStats`` / ``fault_log`` under the current epoch); all timing reads
the installed tracer's clock, so tests drive it from a counting fake.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

from ..obs.trace import RECOVERY, tracer as _obs_tracer
from .transport import (
    PayloadCorrupt,
    Transport,
    TransportError,
    TransportWrapper,
    WorkerDied,
    WorkerError,
    WorkerTimeout,
)
from .worker import state_nbytes

#: Total wall budget of one collect's recovery, in inner-transport
#: default deadlines.
RECOVERY_BUDGET_DEADLINES = 5
#: Adaptive per-collect deadline: this many times the rank's slowest
#: answered submit→reply latency, never under the floor.
DEADLINE_FACTOR = 20.0
DEADLINE_FLOOR_S = 5.0
#: Timeout re-collects per faulted collect before the timeout escalates
#: to a rank rebuild.
MAX_RETRIES = 2


class RankLost(TransportError):
    """The rank exhausted its rebuild budget and is permanently gone."""


class DeterministicFault(TransportError):
    """Recovery was aborted because repeating it cannot help; carries
    the faulted ``op`` and the collect's fault ``ledger``."""

    def __init__(self, reason: str, rank: int, op: str, ledger: list[dict]) -> None:
        rows = "; ".join(
            f"rank {f['rank']} op {f['op']} {f['kind']} attempt {f['attempt']}"
            for f in ledger
        )
        super().__init__(
            f"rank {rank}: {reason} (op {op!r}); fault ledger: [{rows}]", rank=rank
        )
        self.op = op
        self.ledger = ledger


class _SilentRespawn(WorkerTimeout):
    """Internal: a freshly respawned rank ignored its boundary re-sync."""


_KINDS = {
    WorkerTimeout: "timeout",
    _SilentRespawn: "timeout",
    WorkerDied: "died",
    PayloadCorrupt: "corrupt",
}


class ReliableTransport(TransportWrapper):
    """Dedup → retry → rebuild → :class:`RankLost` over any transport.

    Parameters
    ----------
    inner:
        Transport spec being made reliable — ``"local"``, ``"process"`` or an
        instance (e.g. a :class:`~repro.dist.faults.ChaosTransport`).
    retry_backoff:
        Linear backoff unit between timeout retries, seconds.
    max_rebuilds:
        Rank rebuild budget per faulted collect; past it the rank is
        retired and :class:`RankLost` raised.
    """

    def __init__(
        self,
        inner: Union[str, Transport] = "local",
        retry_backoff: float = 0.05,
        max_rebuilds: int = 3,
    ) -> None:
        if max_rebuilds < 0:
            raise ValueError("max_rebuilds must be >= 0")
        self.retry_backoff = float(retry_backoff)
        self.max_rebuilds = int(max_rebuilds)
        #: ``sink(entry, **counts)``: one call per ledger event — a fault
        #: ``entry`` dict (or ``None``) plus ``CommStats`` fault-column
        #: increments.  Nobody listens until the strategy binds.
        self.sink: Callable[..., None] = lambda entry, **counts: None
        self._seq: dict[int, int] = {}  # per-rank last stamped sequence number
        self._pending: dict[int, dict] = {}  # per-rank outstanding stamped command
        self._sent_at: dict[int, float] = {}
        self._slowest: dict[int, float] = {}  # per-rank slowest answered latency
        self._boundary: dict[int, dict] = {}  # per-rank last sync command
        self._log: dict[int, list[dict]] = {}  # accepted commands since it
        self._lost: set[int] = set()
        super().__init__(inner)

    def close(self) -> None:
        super().close()
        for state in (self._pending, self._boundary, self._log, self._lost):
            state.clear()

    # ------------------------------------------------------------------
    # The exactly-once protocol.
    # ------------------------------------------------------------------
    def submit(self, rank: int, cmd: dict) -> None:
        """Stamp, send and remember ``cmd`` as ``rank``'s one outstanding
        command.  A ``sync`` becomes the rank's new boundary and empties
        its replay log *before* it is sent, so a fault during the sync
        itself rebuilds from exactly that state."""
        if rank in self._lost:
            raise RankLost(f"rank {rank} was permanently lost", rank=rank)
        if rank in self._pending:
            raise TransportError(
                f"rank {rank} already has an uncollected command", rank=rank
            )
        if cmd.get("op") == "sync":
            self._boundary[rank] = {**cmd, "reset_codec": True}
            self._log[rank] = []
        try:
            self._pending[rank] = self._send(rank, cmd)
        except WorkerDied:
            # Dead before the command left: keep it pending, unstamped —
            # the collect books the fault and rebuilds, which resubmits.
            self._pending[rank] = dict(cmd)

    def collect(self, rank: int, timeout: Optional[float] = None) -> dict:
        """The reply to ``rank``'s outstanding command, exactly once.
        ``timeout`` is protocol compatibility only: deadlines are the
        wrapper's to set."""
        if rank in self._lost:
            raise RankLost(f"rank {rank} was permanently lost", rank=rank)
        cmd = self._pending.pop(rank)
        clock = _obs_tracer().clock
        budget_end = clock() + RECOVERY_BUDGET_DEADLINES * self.timeout
        ledger: list[dict] = []
        retries = rebuilds = 0
        rebuild = False
        while True:
            try:
                if rebuild:
                    rebuild = False
                    if rebuilds >= self.max_rebuilds:
                        self._retire(rank)
                        raise RankLost(
                            f"rank {rank} exhausted its rebuild budget", rank=rank
                        )
                    rebuilds += 1
                    cmd = self._rebuild(rank, cmd, budget_end)
                    retries = 0
                if "seq" not in cmd:
                    raise WorkerDied(f"rank {rank} was dead at submit", rank=rank)
                reply = self._await(rank, cmd["seq"], budget_end if ledger else None)
                if cmd.get("op") != "sync":
                    self._log.setdefault(rank, []).append(cmd)
                return reply
            except (WorkerError, RankLost, DeterministicFault):
                raise  # application bug / end of the ladder: not a fabric fault
            except TransportError as err:
                entry = {
                    "rank": rank,
                    "op": cmd.get("op", "?"),
                    "kind": _KINDS.get(type(err), "transport"),
                    "attempt": rebuilds,
                    "error": str(err),
                }
                ledger.append(entry)
                self.sink(entry, faults=1)
                if isinstance(err, _SilentRespawn):
                    raise DeterministicFault(
                        "freshly respawned rank never answered its boundary re-sync",
                        rank, entry["op"], ledger,
                    ) from err
                if clock() >= budget_end:
                    raise DeterministicFault(
                        "recovery wall budget "
                        f"({RECOVERY_BUDGET_DEADLINES} x {self.timeout:g}s) exhausted",
                        rank, entry["op"], ledger,
                    ) from err
                if isinstance(err, WorkerTimeout) and retries < MAX_RETRIES:
                    retries += 1
                    self.sink(None, retries=1)
                    if self.retry_backoff > 0:
                        time.sleep(self.retry_backoff * retries)
                    continue
                if isinstance(err, WorkerTimeout):
                    # Out of retries: the rank is wedged — kill it so the
                    # rebuild starts from a clean respawn.
                    self._kill_quietly(rank)
                rebuild = True

    # ------------------------------------------------------------------
    # Ladder rungs.
    # ------------------------------------------------------------------
    def _send(self, rank: int, cmd: dict) -> dict:
        cmd = dict(cmd)
        cmd["seq"] = self._seq[rank] = self._seq.get(rank, -1) + 1
        self._sent_at[rank] = _obs_tracer().clock()
        self._require_inner().submit(rank, cmd)
        return cmd

    def _deadline(self, rank: int, budget_end: Optional[float]) -> Optional[float]:
        """Inner default until ``rank`` has answered, then adaptive; in
        recovery, never past what is left of the wall budget."""
        slowest = self._slowest.get(rank)
        if slowest is None and budget_end is None:
            return None
        deadline = self.timeout
        if slowest is not None:
            deadline = min(deadline, max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * slowest))
        if budget_end is not None:
            deadline = min(deadline, max(budget_end - _obs_tracer().clock(), 0.0))
        return deadline

    def _await(self, rank: int, seq: int, budget_end: Optional[float] = None) -> dict:
        """One protocol-correct collect: drop stale duplicates, surface
        replica-side faults as typed exceptions."""
        inner = self._require_inner()
        while True:
            reply = inner.collect(rank, timeout=self._deadline(rank, budget_end))
            fault = reply.get("fault")
            if fault == "worker_error":
                raise WorkerError(
                    f"rank {rank}: replica raised: {reply.get('error')}", rank=rank
                )
            if fault == "payload_corrupt":
                raise PayloadCorrupt(
                    f"rank {rank}: replica received a corrupt command", rank=rank
                )
            if reply.get("seq") != seq:
                continue  # stale duplicate (at-least-once delivery)
            latency = _obs_tracer().clock() - self._sent_at[rank]
            if latency > self._slowest.get(rank, -1.0):
                self._slowest[rank] = latency
            return reply

    def _rebuild(self, rank: int, cmd: dict, budget_end: float) -> dict:
        """Respawn if dead, re-sync from the boundary with a codec
        reset, replay the accepted-command log, resubmit ``cmd``;
        returns the re-stamped command.  A fabric fault in here is the
        caller's next fault (chaos does not pause for repairs) — the
        boundary re-sync makes rebuilding again idempotent."""
        clock = _obs_tracer().clock
        started = clock()
        try:
            with _obs_tracer().span("dist.rebuild", phase=RECOVERY, rank=rank):
                inner = self._require_inner()
                respawned = not inner.alive(rank)
                if respawned:
                    inner.respawn_rank(rank)
                    self._slowest.pop(rank, None)  # new process: no history
                boundary = self._boundary.get(rank)
                if boundary is None:
                    raise TransportError(
                        f"rank {rank}: no boundary state retained to rebuild from",
                        rank=rank,
                    )
                try:
                    self._await(
                        rank, self._send(rank, boundary)["seq"], budget_end
                    )
                except WorkerTimeout as err:
                    if respawned:
                        raise _SilentRespawn(str(err), rank=rank) from err
                    raise
                self.sink(None, recovery_bytes=state_nbytes(boundary["state"]))
                for logged in self._log.get(rank, ()):
                    # Replies were consumed the first time round.
                    self._await(rank, self._send(rank, logged)["seq"], budget_end)
                return self._send(rank, cmd)
        finally:
            self.sink(None, rebuilds=1, recovery_s=clock() - started)

    def _retire(self, rank: int) -> None:
        self._lost.add(rank)
        self._boundary.pop(rank, None)
        self._log.pop(rank, None)
        if self._require_inner().alive(rank):
            self._kill_quietly(rank)

    def _kill_quietly(self, rank: int) -> None:
        try:
            self._require_inner().kill_rank(rank)
        except TransportError:
            pass
