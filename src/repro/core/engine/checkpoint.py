"""Engine state capture/restore for checkpointing and resume.

A checkpoint holds everything the fit loop mutates: model weights and
declared statistics (BatchNorm's running mean / variance — what
validation normalises with), optimizer slots (SGD velocity, Adam
moments), LR-scheduler state, the predictor (network weights, its Adam
state and per-layer scales), the adaptive phase schedule's observed
quality, the History so far, and the epoch counter.  Restoring it into
a freshly built engine and fitting the remaining epochs reproduces the
uninterrupted run exactly — the round-trip tests in
``tests/core/test_engine.py`` and ``tests/core/test_checkpoint_io.py``
(BatchNorm models, ``val_loss`` included) assert bit-identical History.

Optimizer state (``Optimizer.state_dict``) and predictor scale state
are keyed by stable indices — position in ``optimizer.parameters`` /
``engine.layers`` — so state survives into a new process.
"""

from __future__ import annotations

import copy
import os
import pickle
import struct
import zlib
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import TrainingEngine

FORMAT_VERSION = 1

#: The frame checkpoints (``RCK1``) and the dist wire format (``RDF1``)
#: share: magic + CRC32(body) + body length, then the body — truncation
#: and bit rot are detected before anything is unpickled.
_FRAME_HEADER = struct.Struct("<4sII")
CHECKPOINT_MAGIC = b"RCK1"


def pack_frame(magic: bytes, body: bytes) -> bytes:
    """``body`` behind a checksummed ``magic`` header."""
    return _FRAME_HEADER.pack(magic, zlib.crc32(body), len(body)) + body


def unpack_frame(magic: bytes, data: bytes) -> bytes:
    """The verified body of a :func:`pack_frame` byte string; raises
    ``ValueError`` carrying the one reason ``data`` is not that frame."""
    if len(data) < _FRAME_HEADER.size:
        raise ValueError(f"frame truncated to {len(data)} bytes")
    found, crc, size = _FRAME_HEADER.unpack_from(data)
    body = data[_FRAME_HEADER.size :]
    if found != magic:
        raise ValueError(f"bad frame magic {found!r}, expected {magic!r}")
    if len(body) != size:
        raise ValueError(
            f"frame truncated or extended: body is {len(body)} bytes, "
            f"header promised {size}"
        )
    if zlib.crc32(body) != crc:
        raise ValueError("frame body fails its CRC32 check")
    return body


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file is truncated, bit-rotted, or not a checkpoint."""


def _copy_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.copy()
    return copy.deepcopy(value)


def _scheduler_state(scheduler) -> dict:
    return {
        k: _copy_value(v) for k, v in vars(scheduler).items() if k != "optimizer"
    }


def _load_scheduler_state(scheduler, state: dict) -> None:
    for key, value in state.items():
        setattr(scheduler, key, _copy_value(value))


def trainable_state(engine: "TrainingEngine") -> dict:
    """What training itself mutates: the model's ``state_dict`` (weights
    and running statistics), optimizer slots, the separate GP
    optimizer's, and the predictor (network, its Adam state, per-layer
    scales).  The part of :func:`engine_state` a data-parallel
    replica must copy to match rank 0 bitwise (``repro.dist`` broadcasts
    exactly this dict as its sync state)."""
    state: dict[str, Any] = {
        "model": engine.model.state_dict(),
        "optimizer": engine.optimizer.state_dict(),
    }
    if engine.gp_optimizer is not None and engine.gp_optimizer is not engine.optimizer:
        state["gp_optimizer"] = engine.gp_optimizer.state_dict()
    if engine.predictor is not None:
        state["predictor"] = {
            "network": engine.predictor.network.state_dict(),
            "optimizer": engine.predictor.optimizer.state_dict(),
            "scales": engine.predictor.scales_state(engine.layers),
        }
    return state


def load_trainable_state(engine: "TrainingEngine", state: dict) -> None:
    """Inverse of :func:`trainable_state` on a structurally identical
    engine; extra keys (a whole checkpoint) are ignored."""
    engine.model.load_state_dict(state["model"])
    engine.optimizer.load_state_dict(state["optimizer"])
    if "gp_optimizer" in state:
        if engine.gp_optimizer is None or engine.gp_optimizer is engine.optimizer:
            raise ValueError(
                "checkpoint has a separate gp_optimizer but the engine does not"
            )
        engine.gp_optimizer.load_state_dict(state["gp_optimizer"])
    if "predictor" in state:
        if engine.predictor is None:
            raise ValueError("checkpoint has predictor state but engine has none")
        engine.predictor.network.load_state_dict(state["predictor"]["network"])
        engine.predictor.optimizer.load_state_dict(state["predictor"]["optimizer"])
        engine.predictor.load_scales_state(
            engine.layers, state["predictor"]["scales"]
        )


def engine_state(engine: "TrainingEngine") -> dict:
    """Capture the complete mutable state of an engine."""
    state: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        **trainable_state(engine),
        "current_epoch": engine.current_epoch,
        "history": copy.deepcopy(engine.history),
    }
    if engine.lr_scheduler is not None:
        state["lr_scheduler"] = _scheduler_state(engine.lr_scheduler)
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
    load_trainable_state(engine, state)
    if "lr_scheduler" in state:
        if engine.lr_scheduler is None:
            raise ValueError("checkpoint has LR-scheduler state but engine has none")
        _load_scheduler_state(engine.lr_scheduler, state["lr_scheduler"])
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
    for strategy in {id(s): s for s in engine.strategies.values()}.values():
        strategy.on_state_loaded()


def save_checkpoint(engine: "TrainingEngine", path: str) -> None:
    """Serialize :func:`engine_state` to ``path`` atomically.

    The checksummed frame is written to ``path + ".tmp"``, fsync'd, then
    ``os.replace``'d over ``path`` — a crash mid-write leaves either the
    old checkpoint or the new one, never a torn file.
    """
    frame = pack_frame(CHECKPOINT_MAGIC, pickle.dumps(engine_state(engine)))
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def _is_bare_pickle(data: bytes) -> bool:
    """Whether ``data`` opens like ``pickle.dump`` output (protocol 4+):
    PROTO, then a FRAME whose length fits the file.  Checked *before*
    unpickling, because pickle run over damaged bytes can allocate
    without bound — seven bytes (push ``None``, ``LONG_BINPUT`` to index
    0x03ffffff, stop) make the unpickler's memo a gigabyte."""
    return (
        data[:1] == b"\x80"
        and data[2:3] == b"\x95"
        and int.from_bytes(data[3:11], "little") <= len(data) - 11
    )


def _read_checkpoint(path: str) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        if data[:4] == CHECKPOINT_MAGIC:
            data = unpack_frame(CHECKPOINT_MAGIC, data)
        elif not _is_bare_pickle(data):
            # Pre-framing checkpoints were a bare pickle; keep loading them.
            raise ValueError(
                f"not a checkpoint (no {CHECKPOINT_MAGIC!r} header and not a "
                "legacy pickle)"
            )
        state = pickle.loads(data)
        if not isinstance(state, dict):
            raise ValueError(f"not a checkpoint (a pickled {type(state).__name__})")
    except Exception as err:
        raise CheckpointCorrupt(f"{path}: {err}") from err
    return state


def load_checkpoint(engine: "TrainingEngine", path: str) -> None:
    """Load a checkpoint file saved by :func:`save_checkpoint`.

    Raises :class:`CheckpointCorrupt` on truncated or bit-rotted files
    (detected by the frame header before unpickling).
    """
    load_engine_state(engine, _read_checkpoint(path))
