"""Engine state capture/restore for checkpointing and resume.

A checkpoint holds everything the fit loop mutates: model weights,
optimizer slots (SGD velocity, Adam moments), LR-scheduler state, the
predictor (network weights, its Adam state and per-layer scales), the
adaptive phase schedule's observed quality, the History so far, and the
epoch counter.  Restoring it into a freshly built engine and fitting the
remaining epochs reproduces the uninterrupted run exactly — the
round-trip test in ``tests/core/test_engine.py`` asserts bit-identical
History.

Optimizer state is keyed by ``id(parameter)`` and predictor scale state
by the layer object in memory; checkpoints remap both to stable indices
(position in ``optimizer.parameters`` / ``engine.layers``) so state
survives into a new process.
"""

from __future__ import annotations

import copy
import os
import pickle
import struct
import zlib
from typing import TYPE_CHECKING, Any

import numpy as np

from ...nn.optim import Optimizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import TrainingEngine

FORMAT_VERSION = 1

#: On-disk frame: magic + CRC32(body) + body length, then the pickled
#: state — same shape as the dist wire framing, so truncation and bit
#: rot are detected before unpickling.
CHECKPOINT_MAGIC = b"RCK1"
_CHECKPOINT_HEADER = struct.Struct("<4sII")


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file is truncated, bit-rotted, or not a checkpoint."""


def _copy_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.copy()
    return copy.deepcopy(value)


def optimizer_state(optimizer: Optimizer) -> dict:
    """Snapshot an optimizer: lr + every per-parameter slot dict.

    Slots are discovered structurally (any dict attribute keyed by
    parameter ids), so custom optimizers with the same convention are
    covered without per-class code.
    """
    index_of = {id(p): i for i, p in enumerate(optimizer.parameters)}
    slots: dict[str, dict] = {}
    for name, value in vars(optimizer).items():
        if name == "_param_ids" or not isinstance(value, dict):
            continue
        if value and not all(key in index_of for key in value):
            continue
        slots[name] = {index_of[k]: _copy_value(v) for k, v in value.items()}
    return {"lr": optimizer.lr, "slots": slots}


def load_optimizer_state(optimizer: Optimizer, state: dict) -> None:
    """Inverse of :func:`optimizer_state` (same parameter order)."""
    optimizer.lr = state["lr"]
    params = optimizer.parameters
    for name, slot in state["slots"].items():
        setattr(
            optimizer, name, {id(params[i]): _copy_value(v) for i, v in slot.items()}
        )


def _scheduler_state(scheduler) -> dict:
    return {
        k: _copy_value(v) for k, v in vars(scheduler).items() if k != "optimizer"
    }


def _load_scheduler_state(scheduler, state: dict) -> None:
    for key, value in state.items():
        setattr(scheduler, key, _copy_value(value))


def engine_state(engine: "TrainingEngine") -> dict:
    """Capture the complete mutable state of an engine."""
    state: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "model": engine.model.state_dict(),
        "optimizer": optimizer_state(engine.optimizer),
        "current_epoch": engine.current_epoch,
        "history": copy.deepcopy(engine.history),
    }
    if engine.gp_optimizer is not None and engine.gp_optimizer is not engine.optimizer:
        state["gp_optimizer"] = optimizer_state(engine.gp_optimizer)
    if engine.lr_scheduler is not None:
        state["lr_scheduler"] = _scheduler_state(engine.lr_scheduler)
    if engine.predictor is not None:
        state["predictor"] = {
            "network": engine.predictor.network.state_dict(),
            "optimizer": optimizer_state(engine.predictor.optimizer),
            "scales": engine.predictor.scales_state(engine.layers),
        }
    if engine.predictor_scheduler is not None:
        state["predictor_scheduler"] = _scheduler_state(engine.predictor_scheduler)
    if engine.schedule is not None:
        # AdaptiveSchedule stores its smoothed MAPE; HeuristicSchedule
        # (stateless) stores {}.  The dict shape matches the old direct
        # ``_recent_mape`` poke, so pre-existing checkpoints still load,
        # and duck-typed custom schedules that track ``_recent_mape``
        # without the state_dict protocol keep their pre-PR coverage.
        if hasattr(engine.schedule, "state_dict"):
            schedule_state = engine.schedule.state_dict()
        elif hasattr(engine.schedule, "_recent_mape"):
            schedule_state = {"_recent_mape": engine.schedule._recent_mape}
        else:
            schedule_state = {}
        if schedule_state:
            state["schedule"] = copy.deepcopy(schedule_state)
    # Positional: restoring requires the same callbacks attached in the
    # same order (stateless callbacks contribute an empty dict).
    state["callbacks"] = [
        copy.deepcopy(callback.state_dict()) for callback in engine.callbacks
    ]
    return state


def load_engine_state(engine: "TrainingEngine", state: dict) -> None:
    """Restore :func:`engine_state` output into a structurally identical
    engine (same model architecture, optimizers, strategies)."""
    version = state.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {version!r}; expected {FORMAT_VERSION}"
        )
    engine.model.load_state_dict(state["model"])
    load_optimizer_state(engine.optimizer, state["optimizer"])
    if "gp_optimizer" in state:
        if engine.gp_optimizer is None or engine.gp_optimizer is engine.optimizer:
            raise ValueError(
                "checkpoint has a separate gp_optimizer but the engine does not"
            )
        load_optimizer_state(engine.gp_optimizer, state["gp_optimizer"])
    if "lr_scheduler" in state:
        if engine.lr_scheduler is None:
            raise ValueError("checkpoint has LR-scheduler state but engine has none")
        _load_scheduler_state(engine.lr_scheduler, state["lr_scheduler"])
    if "predictor" in state:
        if engine.predictor is None:
            raise ValueError("checkpoint has predictor state but engine has none")
        engine.predictor.network.load_state_dict(state["predictor"]["network"])
        load_optimizer_state(engine.predictor.optimizer, state["predictor"]["optimizer"])
        engine.predictor.load_scales_state(
            engine.layers, state["predictor"]["scales"]
        )
    if "predictor_scheduler" in state:
        if engine.predictor_scheduler is None:
            raise ValueError(
                "checkpoint has predictor-scheduler state but engine has none"
            )
        _load_scheduler_state(engine.predictor_scheduler, state["predictor_scheduler"])
    if "schedule" in state and engine.schedule is not None:
        if hasattr(engine.schedule, "load_state_dict"):
            engine.schedule.load_state_dict(state["schedule"])
        else:
            engine.schedule._recent_mape = state["schedule"]["_recent_mape"]
    callback_states = state.get("callbacks", [])
    callbacks = list(engine.callbacks)
    if len(callback_states) != len(callbacks):
        raise ValueError(
            f"checkpoint carries state for {len(callback_states)} callbacks "
            f"but the engine has {len(callbacks)}; attach the same callbacks "
            "before loading"
        )
    for callback, callback_state in zip(callbacks, callback_states):
        callback.load_state_dict(copy.deepcopy(callback_state))
    engine.current_epoch = state["current_epoch"]
    engine.history = copy.deepcopy(state["history"])


def save_checkpoint(engine: "TrainingEngine", path: str) -> None:
    """Serialize :func:`engine_state` to ``path`` atomically.

    The checksummed frame is written to ``path + ".tmp"``, fsync'd, then
    ``os.replace``'d over ``path`` — a crash mid-write leaves either the
    old checkpoint or the new one, never a torn file.
    """
    body = pickle.dumps(engine_state(engine))
    header = _CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, zlib.crc32(body), len(body))
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def _read_checkpoint(path: str) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _CHECKPOINT_HEADER.size or data[:4] != CHECKPOINT_MAGIC:
        # Pre-framing checkpoints were a bare pickle; keep loading them.
        try:
            return pickle.loads(data)
        except Exception as err:
            raise CheckpointCorrupt(
                f"{path}: not a checkpoint (no {CHECKPOINT_MAGIC!r} header and "
                f"not a legacy pickle): {err}"
            ) from err
    magic, crc, length = _CHECKPOINT_HEADER.unpack_from(data)
    body = data[_CHECKPOINT_HEADER.size :]
    if len(body) != length:
        raise CheckpointCorrupt(
            f"{path}: truncated checkpoint — header promises {length} body "
            f"bytes, file has {len(body)}"
        )
    if zlib.crc32(body) != crc:
        raise CheckpointCorrupt(f"{path}: checkpoint body fails its CRC32 check")
    try:
        return pickle.loads(body)
    except Exception as err:  # pragma: no cover - CRC passed but pickle broke
        raise CheckpointCorrupt(f"{path}: checkpoint body unpickle failed: {err}") from err


def load_checkpoint(engine: "TrainingEngine", path: str) -> None:
    """Load a checkpoint file saved by :func:`save_checkpoint`.

    Raises :class:`CheckpointCorrupt` on truncated or bit-rotted files
    (detected by the frame header before unpickling).
    """
    load_engine_state(engine, _read_checkpoint(path))
