"""Checkpoint file-format tests: atomic writes, CRC-framed headers, and
the :class:`CheckpointCorrupt` surface for truncated / bit-rotted files.

Trajectory-level resume correctness lives in ``test_engine.py`` (its
cases replay one frozen order); this file covers the on-disk contract a
crash-during-save or disk corruption exercises — the fault-tolerance
rung for *persistence* — plus the one resume case whose order
reshuffles, where the resuming side has to land on the right epoch."""

import functools
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import CheckpointCorrupt, HeuristicSchedule, adagp_engine, bp_engine
from repro.core.engine.checkpoint import CHECKPOINT_MAGIC, engine_state
from repro.data import synthetic_images
from repro.dist import PayloadCorrupt, frame_payload, unframe_payload
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy


def _engine(seed=0):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 3, rng=rng),
    )
    return bp_engine(model, CrossEntropyLoss(), lr=0.05)


def _trained_engine(seed=0):
    engine = _engine(seed)
    split = synthetic_images(3, 32, 16, image_size=8, seed=0)
    engine.fit(
        lambda: split.train.batches(16, rng=np.random.default_rng(1)),
        lambda: split.val.batches(16, shuffle=False),
        1,
    )
    return engine


def _assert_same_state(fresh, trained):
    assert pickle.dumps(fresh.model.state_dict()) == pickle.dumps(
        trained.model.state_dict()
    )
    assert fresh.history.train_loss == trained.history.train_loss
    assert fresh.current_epoch == trained.current_epoch


class TestAtomicSave:
    def test_round_trip_restores_state(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        trained = _trained_engine()
        trained.save_checkpoint(path)
        fresh = _engine()
        fresh.load_checkpoint(path)
        _assert_same_state(fresh, trained)

    def test_no_tmp_residue(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        _trained_engine().save_checkpoint(path)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert sorted(os.listdir(tmp_path)) == ["ckpt.pkl"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        """A save over a longer old checkpoint must not leave a stale
        tail (the os.replace property a plain truncating write lacks
        only on crash — this asserts the happy path stays well-formed)."""
        path = str(tmp_path / "ckpt.pkl")
        trained = _trained_engine()
        trained.save_checkpoint(path)
        with open(path, "ab") as handle:
            handle.write(b"\0" * 64)  # simulate a stale longer file
        trained.save_checkpoint(path)
        fresh = _engine()
        fresh.load_checkpoint(path)  # length check would reject a tail

    def test_file_is_framed(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        _trained_engine().save_checkpoint(path)
        with open(path, "rb") as handle:
            assert handle.read(4) == CHECKPOINT_MAGIC


class TestCorruptionDetection:
    def test_truncated_file_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        _trained_engine().save_checkpoint(path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorrupt, match="truncated"):
            _engine().load_checkpoint(path)

    def test_flipped_body_byte_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        _trained_engine().save_checkpoint(path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CheckpointCorrupt, match="CRC32"):
            _engine().load_checkpoint(path)

    def test_garbage_file_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a checkpoint of any vintage")
        with pytest.raises(CheckpointCorrupt, match="not a checkpoint"):
            _engine().load_checkpoint(path)

    def test_error_names_the_file(self, tmp_path):
        path = str(tmp_path / "which-one.pkl")
        with open(path, "wb") as handle:
            handle.write(b"junk")
        with pytest.raises(CheckpointCorrupt, match="which-one"):
            _engine().load_checkpoint(path)


@functools.lru_cache(maxsize=None)
def _valid_frames():
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "valid.ckpt")
        _engine().save_checkpoint(path)
        with open(path, "rb") as handle:
            checkpoint = handle.read()
    payload = {"op": "apply", "encs": [np.arange(6.0)]}
    return {"RCK1": checkpoint, "RDF1": frame_payload(payload)}


class TestFrameFuzz:
    """``RCK1`` files and ``RDF1`` wire payloads are one frame: whatever
    happens to the bytes, each format answers with its own named error —
    never another exception, never an object."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_damage_raises_the_formats_named_error(self, data, tmp_path_factory):
        path = str(tmp_path_factory.getbasetemp() / "fuzzed.ckpt")
        fmt = data.draw(st.sampled_from(["RCK1", "RDF1"]))
        frame = _valid_frames()[fmt]
        damage = data.draw(st.sampled_from(["truncate", "extend", "flip", "magic"]))
        if damage == "truncate":
            damaged = frame[: data.draw(st.integers(0, len(frame) - 1))]
        elif damage == "extend":
            damaged = frame + data.draw(st.binary(min_size=1, max_size=16))
        elif damage == "flip":
            at = data.draw(st.integers(0, len(frame) - 1))
            flipped = frame[at] ^ data.draw(st.integers(1, 255))
            damaged = frame[:at] + bytes([flipped]) + frame[at + 1 :]
        else:
            other = data.draw(st.binary(min_size=4, max_size=4).filter(frame[:4].__ne__))
            damaged = other + frame[4:]
        if fmt == "RDF1":
            with pytest.raises(PayloadCorrupt):
                unframe_payload(damaged, rank=1)
        else:
            with open(path, "wb") as handle:
                handle.write(damaged)
            with pytest.raises(CheckpointCorrupt, match="fuzzed.ckpt"):
                _engine().load_checkpoint(path)

    @pytest.mark.parametrize(
        "junk",
        [
            pickle.dumps(["a", "pickle", "but", "no", "state", "dict"]),
            # A complete pickle of ``None`` whose LONG_BINPUT index makes
            # the unpickler's memo a gigabyte: must never reach pickle.
            b"Nr\xff\xff\xff\x03.",
        ],
    )
    def test_a_picklable_non_checkpoint_is_refused_by_name(self, junk, tmp_path):
        path = str(tmp_path / "junk.pkl")
        with open(path, "wb") as handle:
            handle.write(junk)
        with pytest.raises(CheckpointCorrupt, match="not a checkpoint"):
            _engine().load_checkpoint(path)


def _fit_on_the_runs_order(engine, split, epochs, batch_size):
    """Fit from ``engine.current_epoch`` on the epochs an uninterrupted
    run would meet there: the lazy calls already consumed are discarded."""
    train = split.train.epochs(batch_size, seed=4)
    for _ in range(engine.current_epoch):
        train()
    return engine.fit(train, split.val.epochs(16), epochs)


class TestResumeUnderEpochs:
    def test_resume_equals_uninterrupted_when_the_order_reshuffles(self, tmp_path):
        """``epochs()`` orders epoch k as a function of (seed, k), so a
        resumed fit discards ``current_epoch`` lazy calls and continues
        on the uninterrupted run's batches — bitwise, through the file."""
        split = synthetic_images(3, 48, 16, image_size=8, seed=0)

        def build():
            rng = np.random.default_rng(0)
            model = nn.Sequential(
                nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                nn.ReLU(),
                nn.Conv2d(4, 4, 3, padding=1, rng=rng),
                nn.GlobalAvgPool2d(),
                nn.Linear(4, 3, rng=rng),
            )
            return adagp_engine(
                model, CrossEntropyLoss(), lr=0.05,
                schedule=HeuristicSchedule(warmup_epochs=1, ladder=((2, (2, 1)),)),
            )

        def fit(engine, epochs):
            return _fit_on_the_runs_order(engine, split, epochs, batch_size=8)

        straight = build()
        fit(straight, 5)

        path = str(tmp_path / "ckpt.pkl")
        first = build()
        fit(first, 2)
        first.save_checkpoint(path)
        resumed = build()
        resumed.load_checkpoint(path)
        assert resumed.current_epoch == 2
        fit(resumed, 3)

        assert resumed.history.train_loss == straight.history.train_loss
        assert resumed.history.val_loss == straight.history.val_loss
        assert resumed.history.gp_batches == straight.history.gp_batches
        assert resumed.history.predictor_mape == straight.history.predictor_mape
        assert pickle.dumps(resumed.model.state_dict()) == pickle.dumps(
            straight.model.state_dict()
        )
        # Forgetting to skip ahead replays epochs 0-2 and diverges.
        replayed = build()
        replayed.load_checkpoint(path)
        replayed.fit(split.train.epochs(8, seed=4), split.val.epochs(16), 3)
        assert replayed.history.train_loss != straight.history.train_loss


BN_MINIS = ["VGG13", "ResNet50", "DenseNet121", "MobileNet-V2"]


def _bn_engine(name, factory):
    model = build_mini(name, 10, rng=np.random.default_rng(0))
    if factory == "bp_engine":
        return bp_engine(model, CrossEntropyLoss(), lr=0.05, metric_fn=accuracy)
    return adagp_engine(
        model, CrossEntropyLoss(), lr=0.05, metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((2, (1, 1)),)),
    )


class TestResumeOnBatchNormModels:
    """A checkpoint carries the running statistics validation reads:
    resume equals uninterrupted on ``val_loss`` / ``val_metric`` too,
    not only on the ``train_loss`` batch statistics produce."""

    @pytest.mark.parametrize("factory", ["bp_engine", "adagp_engine"])
    @pytest.mark.parametrize("name", BN_MINIS)
    def test_resume_equals_uninterrupted_history(self, name, factory, tmp_path):
        split = synthetic_images(10, 32, 16, image_size=16, seed=0)

        def fit(engine, epochs):
            return _fit_on_the_runs_order(engine, split, epochs, batch_size=16)

        straight = _bn_engine(name, factory)
        fit(straight, 3)

        path = str(tmp_path / "ckpt.pkl")
        first = _bn_engine(name, factory)
        fit(first, 2)
        first.save_checkpoint(path)
        resumed = _bn_engine(name, factory)
        resumed.load_checkpoint(path)
        fit(resumed, 1)

        assert resumed.history == straight.history
        assert pickle.dumps(resumed.model.state_dict()) == pickle.dumps(
            straight.model.state_dict()
        )

    def test_a_checkpoint_without_statistics_is_refused_by_key(self, tmp_path):
        """What this format held before it carried them: loading one
        into a BatchNorm model names the missing key instead of
        evaluating with zero mean and unit variance."""
        engine = _bn_engine("VGG13", "bp_engine")
        state = engine_state(engine)
        state["model"] = {
            key: value for key, value in state["model"].items() if "running_" not in key
        }
        path = str(tmp_path / "old.pkl")
        with open(path, "wb") as handle:
            pickle.dump(state, handle)
        with pytest.raises(KeyError, match="running_mean"):
            _bn_engine("VGG13", "bp_engine").load_checkpoint(path)


class TestLegacyFormat:
    def test_bare_pickle_checkpoints_still_load(self, tmp_path):
        """Pre-framing checkpoints were a bare pickle of the state dict;
        existing files must keep loading."""
        path = str(tmp_path / "legacy.pkl")
        trained = _trained_engine()
        with open(path, "wb") as handle:
            pickle.dump(engine_state(trained), handle)
        fresh = _engine()
        fresh.load_checkpoint(path)
        _assert_same_state(fresh, trained)


class TestPublicSurface:
    def test_exception_importable_from_core(self):
        from repro.core import CheckpointCorrupt as from_core
        from repro.core.engine import CheckpointCorrupt as from_engine

        assert from_core is from_engine
        assert issubclass(from_core, RuntimeError)
