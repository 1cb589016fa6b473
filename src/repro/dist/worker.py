"""Replica-side of data-parallel training: one engine per worker rank.

A :class:`DistWorker` hosts a full replica :class:`TrainingEngine`
(model, optimizer(s), predictor — built by the same factory on every
rank) but never runs a fit loop; it answers the driver's commands:

``sync``
    Load a full sync-state broadcast (model weights, optimizer slots,
    predictor network/optimizer/scales) so the replica is bitwise
    identical to rank 0 — sent once at startup, after
    ``invalidate_replicas()``, and at phase boundaries (BP→GP and
    GP→BP) under ``resync="phase"``.
``compute``
    Run forward+backward (+ local predictor training) on this rank's
    shard with the driver's loss-gradient scale, then reply with the
    shard loss and this rank's codec-encoded gradients.
``apply``
    Decode *all* ranks' encoded gradients, sum them in rank order
    (:func:`~repro.dist.codec.decode_sum` — the same reduction the
    driver runs), install them as ``param.grad`` and step the local
    optimizer.  Every rank applies the identical reduced gradient, so
    replicas stay in lockstep without shipping dense sums.
``gp``
    Run a Phase-GP batch on this rank's shard — locally-predicted
    updates only, zero gradient communication (the ADA-GP phase
    structure's gift to data parallelism).

Commands piggyback the driver's current learning rates (the driver owns
the LR schedulers; replicas never step their own), so plateau/milestone
schedules need no extra protocol.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..core.engine import checkpoint as checkpoint_io
from ..core.engine.engine import TrainingEngine
from ..core.schedule import Phase
from ..nn.backend import backend_scope
from .codec import Codec, decode_sum


def sync_state(engine: TrainingEngine) -> dict:
    """Everything a replica must copy to match rank 0 bitwise.

    A strict subset of :func:`~repro.core.engine.checkpoint.engine_state`
    — no history, epoch counter, schedule or callback state (driver-only
    concerns), which also keeps resync broadcasts lean.
    """
    state: dict[str, Any] = {
        "model": engine.model.state_dict(),
        "optimizer": checkpoint_io.optimizer_state(engine.optimizer),
    }
    if engine.gp_optimizer is not None and engine.gp_optimizer is not engine.optimizer:
        state["gp_optimizer"] = checkpoint_io.optimizer_state(engine.gp_optimizer)
    if engine.predictor is not None:
        state["predictor"] = {
            "network": engine.predictor.network.state_dict(),
            "optimizer": checkpoint_io.optimizer_state(engine.predictor.optimizer),
            "scales": engine.predictor.scales_state(engine.layers),
        }
    return state


def load_sync_state(engine: TrainingEngine, state: dict) -> None:
    """Install a :func:`sync_state` snapshot into a replica engine."""
    engine.model.load_state_dict(state["model"])
    checkpoint_io.load_optimizer_state(engine.optimizer, state["optimizer"])
    if "gp_optimizer" in state:
        checkpoint_io.load_optimizer_state(engine.gp_optimizer, state["gp_optimizer"])
    if "predictor" in state and engine.predictor is not None:
        engine.predictor.network.load_state_dict(state["predictor"]["network"])
        checkpoint_io.load_optimizer_state(
            engine.predictor.optimizer, state["predictor"]["optimizer"]
        )
        engine.predictor.load_scales_state(
            engine.layers, state["predictor"]["scales"]
        )


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
    """One worker rank: a replica engine plus its rank-local codec."""

    def __init__(
        self, engine: TrainingEngine, codec: Codec, rank: int, world_size: int
    ) -> None:
        self.engine = engine
        self.codec = codec
        self.rank = int(rank)
        self.world_size = int(world_size)

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

    def _compute(self, cmd: dict) -> dict:
        """Shard forward+backward; reply with encoded local gradients."""
        self._set_lrs(cmd.get("lrs"))
        engine = self.engine
        phase: Phase = cmd["phase"]
        strategy = engine.strategy_for(phase)
        backend = strategy.backend if strategy.backend is not None else engine.backend
        with backend_scope(backend):
            result = strategy.forward_backward(
                cmd["inputs"], cmd["targets"], phase, grad_scale=cmd["scale"]
            )
        engine.model.clear_caches()
        encoded = [
            self.codec.encode(index, param.grad) if param.grad is not None else None
            for index, param in enumerate(engine.optimizer.parameters)
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
        """Decode+sum all ranks' gradients (rank order, same kernel as
        the driver) and step the local optimizer."""
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
        result = self.engine.train_batch(cmd["inputs"], cmd["targets"], Phase.GP)
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
            "optimizer": checkpoint_io.optimizer_state(self.engine.optimizer),
        }
