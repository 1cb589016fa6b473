"""Data-parallel phase strategy: shard, all-reduce BP, skip comm on GP.

:class:`DataParallelStrategy` wraps an engine's existing per-phase
strategies (any :class:`~repro.core.engine.strategies.BackpropStrategy`
family for WARMUP/BP, any GP strategy for Phase GP) and distributes each
batch over ``workers`` ranks — rank 0 is the driver engine behind an
in-process :class:`~repro.dist.worker.DistWorker`, ranks ``1..W-1`` are
replicas behind a :class:`~repro.dist.transport.Transport`, and all
answer the same ``compute`` / ``apply`` / ``gp`` command dicts: this file
holds sharding, ordering, accounting and the lost-rank policy, and
nothing a rank *does*.

Per **BP/WARMUP** batch: the batch is cut into contiguous rank-ordered
shards (their concatenation is the original batch), every active rank
runs ``forward_backward`` with its shard's loss-gradient scaled by
``n_r / n`` (so the rank-sum equals full-batch mean-reduction
semantics), encodes its gradients as one bucket — one payload per rank
— and the driver gathers them and submits the ``apply`` fan-out
*before* rank 0 applies, so the replicas' decode and step overlap rank
0's.  *Every* rank decodes and sums the payloads in rank order
(:func:`~repro.dist.codec.decode_sum`), installs the identical reduced
gradient and steps its own optimizer — bitwise lockstep without
shipping dense sums.

Per **GP** batch: each rank runs the inner GP strategy on its shard —
predicted updates come from the rank-local predictor, so *zero gradient
bytes* cross the wire (ADA-GP's phase structure makes the comm story a
feature).  Rank 0's sync state is broadcast at each phase *boundary* —
before the first GP batch after a BP run (replica predictors trained on
local shards are stale) and before the first BP batch after a GP run
(locally-predicted updates drifted the replica models) — never inside a
run, so consecutive GP batches stay strictly comm-free.  Boundary
syncing makes the whole trajectory a function of rank-0 state alone:
replica-local drift is always overwritten before it can influence an
observable result, which is exactly what makes checkpoint/resume bitwise
reproducible (identity codec) and transports interchangeable.

``workers=1`` is pure delegation to the inner strategy — bitwise
identical to the serial engine, which is the enforceable end of the
"parallel == serial" contract (sharded float32 GEMMs cannot match
full-batch ones bitwise; ``W>=2`` vs serial is an allclose property,
``LocalTransport`` vs ``ProcessTransport`` at any ``W`` is the bitwise
one).

Lost ranks — the re-shard / degrade policy
------------------------------------------
The strategy never sees a fabric fault: it talks to its ranks through a
:class:`~repro.dist.reliable.ReliableTransport` (dedup, retry, rebuild,
replay — see that module), whose collects are exactly-once or raise a
typed :class:`~repro.dist.reliable.RankLost`.  What a lost rank *means*
is policy, and lives here: batches re-shard over the survivors after a
world re-sync with codec resets (rank 0's included).  A rank lost in a
sync or the BP gradient gather re-runs the batch on the new layout
(nothing was applied yet); one lost in the apply fan-out or a GP run
keeps the completed work (survivors already applied / GP drift is
overwritten at the next boundary).  Such runs stay deterministic across
identical fault schedules but are not unfaulted-bitwise (the layout
changed).  Below ``min_workers`` (or 2) active ranks the strategy warns
and degrades to serial training rather than aborting the fit.

All communication volume and fault accounting lands in
:class:`CommStats`.  The stats live on the strategy, not the engine —
strategies are not checkpointed, so a ddp engine's checkpoint stays
byte-identical to the serial engine's.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Optional, Union

from ..core.engine.strategies import BatchResult, PhaseStrategy
from ..core.schedule import Phase
from ..obs.trace import COMM, tracer as _obs_tracer
from .codec import Codec, resolve_codec
from .reliable import RankLost, ReliableTransport
from .transport import resolve_transport
from .worker import DistWorker, state_nbytes, sync_state


def shard_sizes(n: int, world_size: int) -> list[int]:
    """Near-equal contiguous shard sizes, biggest-first by rank.

    ``sum == n`` always; ranks beyond ``n`` get empty shards (inactive
    for that batch).  Rank 0 is never empty while ``n >= 1``, so the
    driver always has local work.
    """
    base, rem = divmod(n, world_size)
    return [base + (1 if rank < rem else 0) for rank in range(world_size)]


class CommStats:
    """Per-epoch communication + fault accounting for one strategy.

    ``grad_wire_bytes`` counts actual gradient payload traffic (worker
    uplinks plus the apply broadcast fan-out), ``grad_dense_bytes`` the
    bytes the same traffic would cost uncompressed, bucket padding
    excluded — their ratio is the *measured* compression ratio, not an
    estimate.  ``sync_bytes`` counts state resync broadcasts separately
    (identity-codec runs pay sync, not gradient compression).
    Input-shard shipping is data-loader traffic, excluded here.

    Fault columns: ``faults`` (transport faults observed), ``retries``
    (timeout re-collects), ``rebuilds`` (rank rebuilds), ``recovery_s``
    (wall-clock spent rebuilding) and ``recovery_bytes`` (re-sync +
    replay state traffic — kept out of ``sync_bytes`` so the steady-state
    comm story is unpolluted by recovery).
    """

    _KEYS = (
        "grad_wire_bytes", "grad_dense_bytes", "sync_bytes",
        "faults", "retries", "rebuilds", "recovery_s", "recovery_bytes",
    )

    def __init__(self) -> None:
        self.epochs: dict[int, dict[str, float]] = {}

    def add(self, epoch: int, **counts: float) -> None:
        """Add ``counts`` (any of the eight keys) to ``epoch``'s row."""
        row = self.epochs.setdefault(epoch, self._empty())
        for key, value in counts.items():
            row[key] += value

    def totals(self) -> dict[str, float]:
        """Sum of every epoch row (same keys)."""
        totals = self._empty()
        for row in self.epochs.values():
            for key, value in row.items():
                totals[key] += value
        return totals

    def compression_ratio(self) -> float:
        """Measured dense/wire ratio over the whole run; NaN before any
        gradient traffic."""
        row = self.totals()
        if row["grad_wire_bytes"] <= 0:
            return float("nan")
        return row["grad_dense_bytes"] / row["grad_wire_bytes"]

    def metrics(self):
        """One ``repro_dist_<column>`` counter per ledger column (exactly
        :meth:`totals`) plus the compression-ratio gauge once gradient
        traffic exists (``repro.obs`` pulls these rows)."""
        rows = [
            (f"repro_dist_{key}", "counter", value, {})
            for key, value in self.totals().items()
        ]
        ratio = self.compression_ratio()
        if ratio == ratio:  # NaN before any gradient traffic
            rows.append(("repro_dist_compression_ratio", "gauge", ratio, {}))
        return rows

    @classmethod
    def _empty(cls) -> dict[str, float]:
        return {key: 0 for key in cls._KEYS}


class DataParallelStrategy(PhaseStrategy):
    """Shard batches over ``workers`` ranks; all-reduce BP, comm-free GP.

    Parameters
    ----------
    inner:
        The serial per-phase strategies to distribute — one strategy or
        a ``{Phase: strategy}`` mapping (the engine's original dict).
    workers:
        World size including the driver (rank 0).  ``1`` runs no
        transport at all and delegates every batch bitwise.
    codec:
        Gradient codec spec (name or instance) — *rank 0's* instance;
        replicas spawn their own so residual state stays rank-local.
    transport:
        ``"local"`` / ``"process"`` / a started-or-not
        :class:`~repro.dist.transport.Transport`; :meth:`bind` wraps it
        in a default :class:`~repro.dist.reliable.ReliableTransport`
        unless it already is one (pass a configured one to tune recovery).
    worker_factory:
        Picklable ``factory(rank) -> DistWorker`` (required when
        ``workers > 1``); built by :func:`repro.dist.ddp_engine`.
    min_workers:
        Floor on the active world size (rank 0 included).  Below it —
        or below 2, where "parallel" stops meaning anything — the
        strategy degrades to serial with a warning instead of aborting.
    """

    def __init__(
        self,
        inner: Union[PhaseStrategy, Mapping[Phase, PhaseStrategy]],
        workers: int = 2,
        codec: Union[str, Codec, None] = "identity",
        transport="local",
        worker_factory=None,
        min_workers: int = 2,
    ) -> None:
        super().__init__()
        if isinstance(inner, PhaseStrategy):
            inner = {phase: inner for phase in Phase}
        self.inner: dict[Phase, PhaseStrategy] = dict(inner)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        self.workers = int(workers)
        self.codec = resolve_codec(codec)
        self.worker_factory = worker_factory
        self._transport_spec = transport
        self.transport: Optional[ReliableTransport] = None
        self.comm = CommStats()
        self.min_workers = int(min_workers)
        self._need_sync = True
        # Replica models drifted under local GP updates (GP→BP resync).
        self._drifted = False
        # Replica predictors trained on local shards during a BP run
        # (BP→GP resync); never set when the engine has no predictor.
        self._predictor_stale = False
        #: World ranks still in service, ascending; rank 0 always first.
        self._active: list[int] = list(range(self.workers))
        # Next sync resets every rank's codec (world reset after a loss).
        self._pending_codec_reset = False
        # Degraded to serial (active world under the floor).
        self._serial = False
        #: Human-readable fault ledger: one dict per observed fault.
        self.fault_log: list[dict] = []

    # -- lifecycle ---------------------------------------------------------
    def bind(self, engine) -> None:
        super().bind(engine)
        for strategy in {id(s): s for s in self.inner.values()}.values():
            strategy.bind(engine)
        if self.workers > 1 and self.transport is None:
            if self.worker_factory is None:
                raise ValueError(
                    "DataParallelStrategy(workers > 1) needs a worker_factory "
                    "(use repro.dist.ddp_engine to build one)"
                )
            spec = self._transport_spec
            if not isinstance(spec, ReliableTransport):
                spec = ReliableTransport(spec)
            self.transport = resolve_transport(spec, self.workers)
            self.transport.sink = self._book_recovery
            self.transport.start(self.worker_factory)

    def on_state_loaded(self) -> None:
        """Replicas are not checkpointed: re-broadcast rank 0's restored
        state before the next training batch."""
        self._need_sync = True

    def close(self) -> None:
        """Shut the transport (and its worker ranks) down; idempotent."""
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        self._need_sync = True

    # -- batch dispatch ----------------------------------------------------
    def _rank0(self) -> DistWorker:
        """Rank 0 as the worker every other rank is: the driver engine,
        this strategy's codec and the serial strategies it took over,
        answering the same command dicts the transport carries.  Built
        per use — held, it would close the engine → strategy → engine
        cycle the weak ``engine`` reference exists to avoid."""
        return DistWorker(self.engine, self.codec, 0, self.workers, strategies=self.inner)

    def train_batch(self, inputs, targets, phase: Phase) -> BatchResult:
        while True:
            if self.workers == 1 or self._serial:
                return self.inner[phase].train_batch(inputs, targets, phase)
            # Boundary sync (BP→GP: stale replica predictors; GP→BP:
            # drifted replica models) — never inside a run, so
            # consecutive GP batches stay strictly comm-free.
            stale = self._predictor_stale if phase is Phase.GP else self._drifted
            lrs = self._lrs()
            if self._need_sync or stale:
                if not self._sync_replicas(lrs):
                    continue
            train = self._train_gp if phase is Phase.GP else self._train_bp
            result = train(inputs, targets, phase, lrs)
            # None (like a failed sync): a rank was lost before anything
            # was applied and has been forfeited — re-run the batch on
            # the surviving shard layout (serial if degraded).
            if result is not None:
                return result

    # -- transport plumbing + the lost-rank policy -------------------------
    def _book_recovery(self, entry: Optional[dict], **counts) -> None:
        """The reliable transport's ledger sink: book its faults and
        recovery counters under the epoch they happened in."""
        epoch = self.engine.current_epoch
        if entry is not None:
            self.fault_log.append({"epoch": epoch, **entry})
        self.comm.add(epoch, **counts)

    def _scatter(self, inputs, targets, cmd: dict) -> tuple[list, dict, list]:
        """Cut the batch into contiguous rank-ordered shards and submit
        ``cmd`` + shard to every worker rank that got one.  Returns the
        active ranks, rank 0's own command (the head shard, for the
        caller to run in-process once the others are under way) and the
        ranks that owe a reply."""
        ranks = list(self._active)
        n = len(inputs)
        pending, offset = [], 0
        for rank, size in zip(ranks, shard_sizes(n, len(ranks))):
            if size == 0:
                continue
            cut = slice(offset, offset + size)
            shard = {**cmd, "inputs": inputs[cut], "targets": targets[cut]}
            if cmd["op"] == "compute":
                shard["scale"] = size / n
            if rank == 0:
                local = shard
            else:
                self.transport.submit(rank, shard)
                pending.append(rank)
            offset += size
        return ranks, local, pending

    def _collect(self, ranks: list[int]) -> tuple[dict, list[int]]:
        """Collect every rank's reply in rank order.  A lost rank does
        not abort the sweep: the others are still collected (the strict
        one-reply-per-submit protocol holds) and returned alongside the
        lost ranks, so completed work is not discarded."""
        replies: dict[int, dict] = {}
        lost: list[int] = []
        for rank in ranks:
            try:
                replies[rank] = self.transport.collect(rank)
            except RankLost:
                lost.append(rank)
        return replies, lost

    def _forfeit(self, ranks: list[int]) -> None:
        """Drop lost ranks from the world: re-shard over the survivors
        after a full re-sync with codec resets; degrade to serial below
        the floor."""
        def warn(message: str) -> None:
            warnings.warn(f"repro.dist: {message}", RuntimeWarning, stacklevel=4)

        for rank in ranks:
            self._active.remove(rank)
            self.fault_log.append(
                {"epoch": self.engine.current_epoch, "rank": rank, "kind": "forfeit",
                 "error": "rebuild budget exhausted; rank permanently lost"}
            )
            warn(
                f"rank {rank} permanently lost after exhausting its rebuild budget; "
                f"re-sharding over {len(self._active)} surviving rank(s)"
            )
        self._need_sync = self._pending_codec_reset = True
        if len(self._active) < max(self.min_workers, 2):
            self._serial = True
            warn(
                f"active world size {len(self._active)} fell below min_workers="
                f"{self.min_workers}; degrading to serial single-process training"
            )

    def _lrs(self) -> dict:
        engine = self.engine
        gp, predictor = engine.gp_optimizer, engine.predictor
        return {
            "lr": engine.optimizer.lr,
            "gp_lr": gp.lr if gp is not None and gp is not engine.optimizer else None,
            "predictor_lr": predictor.optimizer.lr if predictor is not None else None,
        }

    def _sync_replicas(self, lrs: dict) -> bool:
        """Broadcast rank 0's sync state to every active rank — the
        boundary a rebuilt rank is re-synced from.  ``False`` when a
        rank was lost mid-sync (forfeited; the caller re-runs)."""
        state = sync_state(self.engine)
        reset = self._pending_codec_reset
        if reset:
            self.codec.reset()  # rank 0's residual accounting too
        ranks = self._active[1:]
        for rank in ranks:
            self.transport.submit(
                rank, {"op": "sync", "state": state, "lrs": lrs, "reset_codec": reset}
            )
        nbytes = state_nbytes(state) * len(ranks)
        with _obs_tracer().span("dist.sync", phase=COMM, nbytes=nbytes):
            _, lost = self._collect(ranks)
        if lost:
            self._forfeit(lost)
            return False
        self.comm.add(self.engine.current_epoch, sync_bytes=nbytes)
        self._need_sync = self._drifted = self._predictor_stale = False
        self._pending_codec_reset = False
        return True

    # -- BP/WARMUP: shard → forward_backward → all-reduce → step everywhere --
    def _train_bp(self, inputs, targets, phase, lrs) -> Optional[BatchResult]:
        engine = self.engine
        ranks, local, pending = self._scatter(
            inputs, targets, {"op": "compute", "phase": phase, "lrs": lrs}
        )
        # Rank 0's shard runs in-process while worker ranks compute.
        rank0 = self._rank0()
        replies = {0: rank0.handle(local)}
        with _obs_tracer().span("dist.gather", phase=COMM, ranks=len(pending)):
            gathered, lost = self._collect(pending)
        if lost:
            # The gradient must cover the whole batch: abort, re-run.
            self._forfeit(lost)
            return None
        replies.update(gathered)
        # Every rank decodes and sums the same payloads in rank order
        # (``DistWorker._apply``) and steps its optimizer; the fan-out
        # goes first, so the replicas apply while rank 0 does.
        encs = [replies[rank]["enc"] if rank in replies else None for rank in ranks]
        apply = {"op": "apply", "encs": encs, "lrs": lrs}
        for rank in ranks[1:]:
            self.transport.submit(rank, apply)
        rank0.handle(apply)
        with _obs_tracer().span("dist.apply", phase=COMM, ranks=len(ranks) - 1):
            _, lost = self._collect(ranks[1:])
        if lost:
            # Every survivor already applied and rank 0 stepped: the
            # batch is complete.  Forfeit the dead without re-running.
            self._forfeit(lost)
        # Wire accounting: worker uplinks (rank 0 has none) + the apply
        # fan-out carrying every rank's payload to every surviving worker.
        wire = [e.wire_bytes if e is not None else 0 for e in encs]
        dense = [e.dense_bytes if e is not None else 0 for e in encs]
        fan_out = len(self._active) - 1
        self.comm.add(
            engine.current_epoch,
            grad_wire_bytes=sum(wire[1:]) + fan_out * sum(wire),
            grad_dense_bytes=sum(dense[1:]) + fan_out * sum(dense),
        )
        if engine.predictor is not None:
            self._predictor_stale = True
        return self._merge_results(replies, phase, len(inputs))

    def _merge_results(self, replies: dict, phase: Phase, n: int) -> BatchResult:
        """Shard-weighted merge of per-rank losses and predictor metrics
        (rank order throughout, so the merge is deterministic)."""
        schedule = self.engine.schedule
        loss = 0.0
        mse_acc: dict[int, float] = {}
        mape_acc: dict[int, float] = {}
        weight_acc: dict[int, float] = {}
        for rank in sorted(replies):
            reply = replies[rank]
            weight = reply["n"] / n
            loss += weight * reply["loss"]
            mse = reply.get("mse") or {}
            mape = reply.get("mape") or {}
            for index in mse:
                mse_acc[index] = mse_acc.get(index, 0.0) + weight * mse[index]
                mape_acc[index] = mape_acc.get(index, 0.0) + weight * mape.get(index, 0.0)
                weight_acc[index] = weight_acc.get(index, 0.0) + weight
            # Rank 0's MAPEs were observed inside its own
            # forward_backward; feed worker MAPEs to the driver's
            # adaptive schedule in rank order.
            if rank > 0 and schedule is not None:
                for index in sorted(mape):
                    schedule.observe_mape(mape[index])
        return BatchResult(
            loss=float(loss),
            phase=phase,
            predictor_mse={i: v / weight_acc[i] for i, v in mse_acc.items()} or None,
            predictor_mape={i: v / weight_acc[i] for i, v in mape_acc.items()} or None,
            shard_batches=len(replies),
        )

    # -- GP: every rank predicts locally; zero gradient bytes on the wire --
    def _train_gp(self, inputs, targets, phase, lrs) -> BatchResult:
        _, local, pending = self._scatter(inputs, targets, {"op": "gp", "lrs": lrs})
        replies = {0: self._rank0().handle(local)}
        gathered, lost = self._collect(pending)
        replies.update(gathered)
        if lost:
            # GP shard results are replica-local by design (the
            # trajectory is rank 0's alone; replica drift is overwritten
            # at the next boundary) — keep the survivors' work and merge
            # what arrived instead of double-applying rank 0's update.
            self._forfeit(lost)
        self._drifted = True
        n = sum(reply["n"] for reply in replies.values())
        return self._merge_results(replies, phase, n)
