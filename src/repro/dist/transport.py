"""Comm substrate for data-parallel training, swappable like a backend.

A :class:`Transport` owns the worker ranks ``1..world_size-1`` (rank 0
is the driver process itself — the engine that runs the fit loop) and
moves command/reply dicts between them:

* :class:`LocalTransport` — workers are in-process objects, commands
  execute synchronously at submit time.  Zero-dependency, fully
  deterministic, the default for tests and 1-core CI.
* :class:`ProcessTransport` — one ``multiprocessing.Process`` per
  worker rank, a dedicated ``Pipe`` each, commands pickled across.
  Real parallelism; the bitwise-parity tests pin its results to
  ``LocalTransport``'s.

Both build workers from the *same* picklable factory
(``factory(rank) -> worker``, a ``functools.partial`` over one pickled
payload), so a replica's construction path — and therefore its state —
is identical whichever transport hosts it.  That construction symmetry,
plus the rank-ordered :func:`~repro.dist.codec.decode_sum` every rank
reduces with, is why swapping transports cannot change a single bit of
the training trajectory.

The protocol is strict request/reply: every :meth:`submit` owes exactly
one :meth:`collect` on the same rank.  The data-parallel strategy
alternates submit-all / collect-all per batch, which keeps the pipes
deadlock-free by construction (no rank ever holds two outstanding
commands).

Fault model (PR 9).  The fabric is no longer assumed perfect:

* Every :class:`ProcessTransport` payload is **CRC32-framed**
  (:func:`frame_payload` / :func:`unframe_payload`), so a corrupted
  pipe read surfaces as :class:`PayloadCorrupt` instead of an unpickle
  crash — and :class:`~repro.dist.faults.ChaosTransport` can corrupt
  real frame bytes to prove the detection path end to end.
* :meth:`ProcessTransport.collect` polls the pipe under a **deadline**
  (default finite — no blocking path can hang forever) and heartbeats
  ``Process.is_alive()`` between polls, raising :class:`WorkerTimeout`
  or :class:`WorkerDied` instead of blocking on a hung or dead rank.
* :meth:`close` escalates join → terminate → kill, is idempotent, and
  every started :class:`ProcessTransport` registers with an ``atexit``
  guard — an exception mid-fit can no longer leak worker processes.
* :meth:`kill_rank` / :meth:`respawn_rank` / :meth:`alive` give the
  recovery layer (and the chaos injector) explicit rank lifecycle
  control; respawn rebuilds the rank from the factory captured at
  :meth:`start`, so a rebuilt replica's construction path is identical
  to the original's.

A transport spec is ``"local"``, ``"process"`` or an instance
(:func:`resolve_transport`); transports decorate each other through
:class:`TransportWrapper` — the fault-injection layer
(:mod:`repro.dist.faults`) and the recovery layer
(:mod:`repro.dist.reliable`) are both wrappers.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import pickle
import time
import weakref
from typing import Callable, Optional, Union

from ..core.engine.checkpoint import pack_frame, unpack_frame

WorkerFactory = Callable[[int], object]

#: Liveness-poll interval of :meth:`ProcessTransport.collect`, seconds.
HEARTBEAT_S = 0.05


# ----------------------------------------------------------------------
# Fault taxonomy.
# ----------------------------------------------------------------------
class TransportError(RuntimeError):
    """Base of every transport-fabric failure; carries the rank."""

    def __init__(self, message: str, rank: Optional[int] = None) -> None:
        super().__init__(message)
        self.rank = rank


class WorkerDied(TransportError):
    """The worker process behind a rank is gone (crash, kill, EOF)."""


class WorkerTimeout(TransportError):
    """No reply inside the collect deadline; the worker may be hung,
    slow, or its reply may have been dropped."""


class WorkerError(TransportError):
    """The worker's command handler raised — a deterministic
    application error relayed intact, not a fabric fault (retrying
    would reproduce it)."""


class PayloadCorrupt(TransportError):
    """A framed payload failed its CRC32 check (or could not be
    unpickled): the bytes on the wire are not the bytes that were
    sent."""


# ----------------------------------------------------------------------
# CRC32 wire framing.
# ----------------------------------------------------------------------
#: Frame layout — magic, CRC32 of the pickled body, body length, body —
#: and its four checks are the checkpoint file's (``pack_frame`` /
#: ``unpack_frame``); only the magic differs.
FRAME_MAGIC = b"RDF1"


def frame_payload(obj: object) -> bytes:
    """Pickle ``obj`` into a CRC32-framed byte string."""
    return pack_frame(FRAME_MAGIC, pickle.dumps(obj))


def unframe_payload(data: bytes, rank: Optional[int] = None) -> object:
    """Verify and unpickle a :func:`frame_payload` byte string.

    Raises :class:`PayloadCorrupt` on a bad magic, a truncated body, a
    CRC mismatch, or an unpicklable body — every way wire bytes can
    differ from sent bytes maps to the one named error the recovery
    policy handles.
    """
    try:
        return pickle.loads(unpack_frame(FRAME_MAGIC, data))
    except Exception as err:
        raise PayloadCorrupt(str(err), rank=rank) from err


class Transport:
    """Command/reply fabric over worker ranks ``1..world_size-1``."""

    #: Default :meth:`collect` deadline in seconds — finite on every
    #: transport, and the unit the recovery layer's budgets derive from.
    timeout: float = 60.0

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = int(world_size)
        self.started = False

    @property
    def worker_ranks(self) -> range:
        return range(1, self.world_size)

    def start(self, factory: WorkerFactory) -> None:
        """Build and launch every worker rank from ``factory(rank)``."""
        raise NotImplementedError

    def submit(self, rank: int, cmd: dict) -> None:
        """Send one command to ``rank``; owes exactly one :meth:`collect`."""
        raise NotImplementedError

    def collect(self, rank: int, timeout: Optional[float] = None) -> dict:
        """Receive the reply to the oldest outstanding command on ``rank``.

        ``timeout`` bounds the wait where the fabric can actually block
        (``None`` means the transport's own default deadline — never
        forever); raises :class:`WorkerTimeout` past the deadline and
        :class:`WorkerDied` when the rank is gone.
        """
        raise NotImplementedError

    # Rank lifecycle (the recovery layer's hooks).
    def alive(self, rank: int) -> bool:
        """Whether ``rank`` is still able to serve commands."""
        raise NotImplementedError

    def kill_rank(self, rank: int) -> None:
        """Forcibly take ``rank`` down (hung-worker escalation, chaos
        injection); outstanding replies are lost."""
        raise NotImplementedError

    def respawn_rank(self, rank: int) -> None:
        """Rebuild ``rank`` from the factory captured at :meth:`start` —
        the same construction path as the original, so a respawned
        replica is deterministic."""
        raise NotImplementedError

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LocalTransport(Transport):
    """In-process workers, synchronous execution at submit time.

    Execution order is rank-sequential rather than concurrent, but each
    rank's computation depends only on its own shard and replica state,
    so results match :class:`ProcessTransport` bitwise.

    Fault semantics mirror the process fabric's so chaos tests are
    transport-agnostic: a killed rank raises :class:`WorkerDied` on
    submit and collect until :meth:`respawn_rank`, and a worker whose
    ``handle`` raises replies with a relayed fault record instead of
    blowing up the driver mid-protocol (same as a process worker).
    """

    def __init__(self, world_size: int) -> None:
        super().__init__(world_size)
        self._workers: dict[int, object] = {}
        self._replies: dict[int, list[dict]] = {}
        self._dead: set[int] = set()
        self._factory: Optional[WorkerFactory] = None

    def start(self, factory: WorkerFactory) -> None:
        if self.started:
            return
        self._factory = factory
        for rank in self.worker_ranks:
            self._workers[rank] = factory(rank)
            self._replies[rank] = []
        self.started = True

    def submit(self, rank: int, cmd: dict) -> None:
        if rank in self._dead:
            raise WorkerDied(f"rank {rank} was killed", rank=rank)
        try:
            reply = self._workers[rank].handle(cmd)
        except Exception as err:  # relay, like a process worker would
            reply = _fault_reply(rank, cmd, err)
        self._replies[rank].append(reply)

    def collect(self, rank: int, timeout: Optional[float] = None) -> dict:
        if rank in self._dead:
            raise WorkerDied(f"rank {rank} was killed", rank=rank)
        if not self._replies[rank]:
            raise WorkerTimeout(f"rank {rank} has no outstanding reply", rank=rank)
        return self._replies[rank].pop(0)

    def alive(self, rank: int) -> bool:
        return rank not in self._dead and rank in self._workers

    def kill_rank(self, rank: int) -> None:
        self._workers.pop(rank, None)
        self._replies[rank] = []
        self._dead.add(rank)

    def respawn_rank(self, rank: int) -> None:
        if self._factory is None:
            raise TransportError("transport was never started", rank=rank)
        self._workers[rank] = self._factory(rank)
        self._replies[rank] = []
        self._dead.discard(rank)

    def close(self) -> None:
        self._workers.clear()
        self._replies.clear()
        self._dead.clear()
        self.started = False


def _fault_reply(rank: int, cmd: dict, err: BaseException) -> dict:
    """The relayed-error reply a worker sends when its handler raises —
    deterministic application failures cross the wire as data, so the
    driver can distinguish them from fabric faults (no point retrying)."""
    reply = {
        "fault": "worker_error",
        "rank": rank,
        "error": f"{type(err).__name__}: {err}",
    }
    if isinstance(cmd, dict) and "seq" in cmd:
        reply["seq"] = cmd["seq"]
    return reply


def _process_worker_main(conn, rank: int, factory: WorkerFactory) -> None:
    """Child-process loop: build the replica, then serve CRC-framed
    commands until a ``close`` arrives (acknowledged before exit) or the
    driver disappears (EOF on the pipe — exit quietly, never linger)."""
    worker = factory(rank)
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):  # driver gone; daemonic belt+braces
            break
        try:
            cmd = unframe_payload(data, rank=rank)
        except PayloadCorrupt as err:
            conn.send_bytes(
                frame_payload(
                    {"fault": "payload_corrupt", "rank": rank, "error": str(err)}
                )
            )
            continue
        try:
            reply = worker.handle(cmd)
        except Exception as err:
            reply = _fault_reply(rank, cmd, err)
        conn.send_bytes(frame_payload(reply))
        if cmd.get("op") == "close":
            break
    conn.close()


#: Started process transports, closed by the atexit guard below so a
#: crashed driver (or a test that forgot ``close``) never leaks workers.
_LIVE_TRANSPORTS: "weakref.WeakSet[ProcessTransport]" = weakref.WeakSet()


def _close_live_transports() -> None:  # pragma: no cover - atexit path
    for transport in list(_LIVE_TRANSPORTS):
        try:
            transport.close()
        except Exception:
            pass


atexit.register(_close_live_transports)


class ProcessTransport(Transport):
    """One OS process + pipe per worker rank (``multiprocessing``).

    Workers are daemonic, so a crashed driver cannot leak them; started
    transports additionally register with an ``atexit`` guard that
    closes them (join → terminate → kill) on interpreter exit.  The
    factory and every command/reply crosses the pipe CRC32-framed via
    pickle; numpy arrays pickle to their raw buffers, so gradient
    payloads cost their ``wire_bytes``, not a text encoding.

    Parameters
    ----------
    timeout:
        Default :meth:`collect` deadline in seconds.  Finite by design:
        with a dead or hung rank, *every* blocking path must surface a
        :class:`WorkerTimeout`/:class:`WorkerDied` rather than block the
        fit loop forever.

    Between pipe polls inside :meth:`collect` (every
    :data:`HEARTBEAT_S`) the worker process is checked with
    ``is_alive()``, so a crashed rank raises :class:`WorkerDied` within
    one heartbeat instead of burning the whole deadline.
    """

    def __init__(
        self,
        world_size: int,
        timeout: float = Transport.timeout,
    ) -> None:
        super().__init__(world_size)
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = float(timeout)
        self._procs: dict[int, mp.Process] = {}
        self._conns: dict[int, object] = {}
        self._factory: Optional[WorkerFactory] = None

    def start(self, factory: WorkerFactory) -> None:
        if self.started:
            return
        self._factory = factory
        for rank in self.worker_ranks:
            self._spawn(rank)
        self.started = True
        _LIVE_TRANSPORTS.add(self)

    def _spawn(self, rank: int) -> None:
        parent, child = mp.Pipe()
        proc = mp.Process(
            target=_process_worker_main,
            args=(child, rank, self._factory),
            daemon=True,
            name=f"repro-dist-rank{rank}",
        )
        proc.start()
        child.close()
        self._procs[rank] = proc
        self._conns[rank] = parent

    def submit(self, rank: int, cmd: dict) -> None:
        try:
            self._conns[rank].send_bytes(frame_payload(cmd))
        except (BrokenPipeError, OSError) as err:
            raise WorkerDied(f"rank {rank} pipe is down: {err}", rank=rank) from err

    def collect(self, rank: int, timeout: Optional[float] = None) -> dict:
        """Poll-with-heartbeat until a framed reply, the deadline, or
        evidence of death — whichever comes first."""
        conn = self._conns[rank]
        proc = self._procs[rank]
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        while True:
            remaining = deadline - time.monotonic()
            interval = max(0.0, min(HEARTBEAT_S, remaining))
            try:
                if conn.poll(interval):
                    return unframe_payload(conn.recv_bytes(), rank=rank)
            except (EOFError, OSError) as err:
                raise WorkerDied(
                    f"rank {rank} closed its pipe: {err}", rank=rank
                ) from err
            if not proc.is_alive():
                # A reply can outlive its sender in the pipe buffer;
                # only an *empty* pipe plus a dead process is death.
                if conn.poll(0):
                    return unframe_payload(conn.recv_bytes(), rank=rank)
                raise WorkerDied(
                    f"rank {rank} process died (exitcode {proc.exitcode})",
                    rank=rank,
                )
            if remaining <= 0:
                raise WorkerTimeout(
                    f"rank {rank}: no reply within {self.timeout if timeout is None else timeout:.3g}s",
                    rank=rank,
                )

    def alive(self, rank: int) -> bool:
        proc = self._procs.get(rank)
        return proc is not None and proc.is_alive()

    def kill_rank(self, rank: int) -> None:
        proc = self._procs.get(rank)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5)

    def respawn_rank(self, rank: int) -> None:
        if self._factory is None:
            raise TransportError("transport was never started", rank=rank)
        self.kill_rank(rank)
        old = self._conns.pop(rank, None)
        if old is not None:
            old.close()
        self._spawn(rank)

    def close(self, timeout: float = 5.0) -> None:
        """Escalating shutdown: polite close → join(timeout) → terminate
        → kill.  Never blocks unboundedly (a worker hung inside its
        handler cannot zombify the driver) and never leaves a live
        child behind; idempotent."""
        if not self.started:
            return
        for rank, conn in self._conns.items():
            try:
                conn.send_bytes(frame_payload({"op": "close"}))
                # Bounded ack wait: a hung worker never answers.
                if conn.poll(timeout):
                    conn.recv_bytes()
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs.values():
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - kill-resistant worker
                proc.kill()
                proc.join(timeout=timeout)
        self._procs.clear()
        self._conns.clear()
        self.started = False
        _LIVE_TRANSPORTS.discard(self)


class TransportWrapper(Transport):
    """A transport that decorates another one (chaos, reliable).

    ``inner`` is a transport name or an instance.  Name specs resolve
    when the world size is known — :meth:`bind_world`, called by
    :func:`resolve_transport` — so one wrapper spec drops into any
    ``workers=`` count.  Lifecycle calls delegate; subclasses supply
    ``submit``/``collect`` and override what else they decorate.
    """

    def __init__(self, inner: Union[str, Transport] = "local") -> None:
        # No super().__init__: the world size may be bound later.
        self._inner_spec = inner
        self.inner: Optional[Transport] = None
        self.started = False
        if isinstance(inner, Transport) and inner.world_size is not None:
            self.bind_world(inner.world_size)

    @property
    def world_size(self) -> Optional[int]:  # type: ignore[override]
        return None if self.inner is None else self.inner.world_size

    @property
    def timeout(self) -> float:  # type: ignore[override]
        return self._require_inner().timeout

    def bind_world(self, world_size: int) -> None:
        if self.inner is not None:
            if self.inner.world_size != world_size:
                raise ValueError(
                    f"{type(self).__name__} already bound to world_size "
                    f"{self.inner.world_size}, cannot rebind to {world_size}"
                )
            return
        self.inner = resolve_transport(self._inner_spec, world_size)

    def _require_inner(self) -> Transport:
        if self.inner is None:
            raise TransportError(
                f"{type(self).__name__} is not bound to a world size yet; resolve "
                "it through resolve_transport or call bind_world"
            )
        return self.inner

    def start(self, factory: WorkerFactory) -> None:
        self._require_inner().start(factory)
        self.started = True

    def alive(self, rank: int) -> bool:
        return self._require_inner().alive(rank)

    def kill_rank(self, rank: int) -> None:
        self._require_inner().kill_rank(rank)

    def respawn_rank(self, rank: int) -> None:
        self._require_inner().respawn_rank(rank)

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()
        self.started = False


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
def resolve_transport(spec, world_size: int) -> Transport:
    """Resolve a transport spec: ``"local"`` or ``"process"``, a
    :class:`Transport` instance (world size must match; wrappers built
    world-size-late are bound here), or ``None`` (local)."""
    if spec is None:
        return LocalTransport(world_size)
    if isinstance(spec, Transport):
        if spec.world_size is None:
            spec.bind_world(world_size)
        if spec.world_size != world_size:
            raise ValueError(
                f"transport world_size {spec.world_size} != workers {world_size}"
            )
        return spec
    if isinstance(spec, str):
        factory = {"local": LocalTransport, "process": ProcessTransport}.get(spec)
        if factory is None:
            raise ValueError(
                f"unknown transport {spec!r}; expected 'local', 'process' "
                "or a Transport instance"
            )
        return factory(world_size)
    raise TypeError(f"cannot resolve transport from {type(spec).__name__}")
