"""What one data-parallel rank does: an engine answering commands.

A :class:`DistWorker` hosts a :class:`TrainingEngine` — a full replica
(model, optimizer(s), predictor, built by the same factory on every
rank), or, for rank 0, the driver's own engine — and never runs a fit
loop; it answers the data-parallel strategy's commands:

``sync``
    Load a full sync-state broadcast (the checkpoint's trainable part:
    model weights, optimizer slots, predictor network/optimizer/scales)
    so the replica is bitwise identical to rank 0 — sent once at
    startup, after the driver loads a checkpoint, and at phase boundaries
    (BP→GP and GP→BP).
``compute``
    Run forward+backward (+ local predictor training) on this rank's
    shard with the driver's loss-gradient scale, then reply with the
    shard loss and this rank's codec-encoded gradients.
``apply``
    Decode *all* ranks' encoded gradients, sum them in rank order
    (:func:`~repro.dist.codec.decode_sum`), install them as
    ``param.grad`` and step the local optimizer.  Every rank, the driver
    included, applies the identical reduced gradient through this one
    method, so ranks stay in lockstep without shipping dense sums.
``gp``
    Run a Phase-GP batch on this rank's shard — locally-predicted
    updates only, zero gradient communication (the ADA-GP phase
    structure's gift to data parallelism).

Commands piggyback the driver's current learning rates (the driver owns
the LR schedulers; replicas never step their own), so plateau/milestone
schedules need no extra protocol.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional

import numpy as np

from ..core.engine import checkpoint as checkpoint_io
from ..core.engine.engine import TrainingEngine
from ..core.engine.strategies import PhaseStrategy
from ..core.schedule import Phase
from ..nn.backend import backend_scope
from ..obs.trace import phase_scope
from .codec import Codec, decode_sum


#: What a replica must copy to match rank 0 bitwise is the trainable part
#: of a checkpoint — no history, epoch counter, schedule or callback
#: state (driver-only concerns) — so the checkpoint's walk is the only one.
sync_state = checkpoint_io.trainable_state
load_sync_state = checkpoint_io.load_trainable_state


def state_nbytes(obj: Any) -> int:
    """Total ndarray payload bytes in a (nested) sync/checkpoint state —
    the broadcast-size accounting behind ``CommStats.sync_bytes``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(state_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(state_nbytes(v) for v in obj)
    return 0


class DistWorker:
    """One rank: an engine plus its rank-local codec.

    ``strategies`` is the serial per-phase table the rank runs.  Every
    replica uses its engine's own (the default); rank 0's engine table
    holds the data-parallel wrapper itself, so the driver passes the
    serial strategies that wrapper took over.
    """

    def __init__(
        self,
        engine: TrainingEngine,
        codec: Codec,
        rank: int,
        world_size: int,
        strategies: Optional[Mapping[Phase, PhaseStrategy]] = None,
    ) -> None:
        self.engine = engine
        self.codec = codec
        self.rank = int(rank)
        self.world_size = int(world_size)
        self.strategies = engine.strategies if strategies is None else strategies

    # ------------------------------------------------------------------
    # Command dispatch.
    # ------------------------------------------------------------------
    def handle(self, cmd: dict) -> dict:
        reply = self._dispatch(cmd)
        if "seq" in cmd:
            # Echo the driver's per-rank sequence number so stale
            # duplicate replies (at-least-once delivery) are detectable.
            reply["seq"] = cmd["seq"]
        return reply

    def _dispatch(self, cmd: dict) -> dict:
        op = cmd.get("op")
        if op == "compute":
            return self._compute(cmd)
        if op == "apply":
            return self._apply(cmd)
        if op == "gp":
            return self._gp(cmd)
        if op == "sync":
            return self._sync(cmd)
        if op == "state":
            return self._state()
        if op in ("ping", "close"):
            return {"ok": True, "rank": self.rank}
        raise ValueError(f"rank {self.rank}: unknown command {op!r}")

    def _set_lrs(self, lrs: Optional[dict]) -> None:
        """Adopt the driver's current learning rates (driver owns the
        schedulers; replica scheduler objects never step)."""
        if not lrs:
            return
        engine = self.engine
        engine.optimizer.lr = lrs["lr"]
        if (
            lrs.get("gp_lr") is not None
            and engine.gp_optimizer is not None
            and engine.gp_optimizer is not engine.optimizer
        ):
            engine.gp_optimizer.lr = lrs["gp_lr"]
        if lrs.get("predictor_lr") is not None and engine.predictor is not None:
            engine.predictor.optimizer.lr = lrs["predictor_lr"]

    def _sync(self, cmd: dict) -> dict:
        load_sync_state(self.engine, cmd["state"])
        self._set_lrs(cmd.get("lrs"))
        if cmd.get("reset_codec"):
            # Recovery re-syncs drop codec residuals so the rebuilt
            # rank's error-feedback state is deterministic (it is then
            # regenerated by replaying the accepted-command log).
            self.codec.reset()
        return {"ok": True, "rank": self.rank}

    @contextmanager
    def _batch(self, phase: Phase) -> Iterator[PhaseStrategy]:
        """``phase``'s serial strategy, inside the scope
        :meth:`TrainingEngine.train_batch` enters (the engine's
        backend); forward caches are dropped afterwards."""
        with phase_scope(phase), backend_scope(self.engine.backend):
            yield self.strategies[phase]
        self.engine.model.clear_caches()

    def _compute(self, cmd: dict) -> dict:
        """Shard forward+backward; reply with encoded local gradients."""
        self._set_lrs(cmd.get("lrs"))
        phase: Phase = cmd["phase"]
        with self._batch(phase) as strategy:
            result = strategy.forward_backward(
                cmd["inputs"], cmd["targets"], phase, grad_scale=cmd["scale"]
            )
        encoded = [
            self.codec.encode(index, param.grad) if param.grad is not None else None
            for index, param in enumerate(self.engine.optimizer.parameters)
        ]
        return {
            "rank": self.rank,
            "loss": result.loss,
            "n": int(len(cmd["inputs"])),
            "enc": encoded,
            "mse": result.predictor_mse,
            "mape": result.predictor_mape,
        }

    def _apply(self, cmd: dict) -> dict:
        """Decode+sum all ranks' gradients in rank order — every rank
        runs this same kernel on the same payloads, so all install
        bitwise-equal gradients — and step the local optimizer."""
        self._set_lrs(cmd.get("lrs"))
        engine = self.engine
        encs_by_rank = cmd["encs"]
        for index, param in enumerate(engine.optimizer.parameters):
            rows = [
                encs[index] if encs is not None else None for encs in encs_by_rank
            ]
            param.grad = decode_sum(rows)
        engine.optimizer.step()
        return {"ok": True, "rank": self.rank}

    def _gp(self, cmd: dict) -> dict:
        """Phase-GP shard: locally-predicted updates, no gradient comm."""
        self._set_lrs(cmd.get("lrs"))
        with self._batch(Phase.GP) as strategy:
            result = strategy.train_batch(cmd["inputs"], cmd["targets"], Phase.GP)
        return {
            "rank": self.rank,
            "loss": result.loss,
            "n": int(len(cmd["inputs"])),
        }

    def _state(self) -> dict:
        """Replica state snapshot — the parity tests' probe."""
        return {
            "rank": self.rank,
            "model": self.engine.model.state_dict(),
            "optimizer": self.engine.optimizer.state_dict(),
        }
