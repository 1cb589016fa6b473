"""A fit's data order has one owner: ``Dataset.epochs(batch_size, seed)``.

Properties of the epoch order itself (all three dataset classes share
one body), the reason it exists (under a positional phase schedule a
frozen order never shows some samples a true gradient), and a pin on
the batches the frozen ``bench/`` callers still build by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PAPER_FINAL_RATIO,
    PAPER_RATIO_LADDER,
    HeuristicSchedule,
    Phase,
    adagp_engine,
)
from repro.data import (
    ArrayDataset,
    DetectionDataset,
    TranslationDataset,
    synthetic_images,
    teacher_forcing,
)
from repro.models import build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy


def _array(n):
    return ArrayDataset(np.arange(n), -np.arange(n))


def _translation(n):
    ids = np.arange(n)[:, None]
    return TranslationDataset(src=ids, tgt=-ids, src_vocab=n, tgt_vocab=n)


def _detection(n):
    ids = np.arange(n).reshape(n, 1, 1, 1)
    return DetectionDataset(
        images=ids, grid_targets=-ids, boxes=[[] for _ in range(n)],
        grid_size=1, num_classes=1,
    )


DATASETS = {"array": _array, "translation": _translation, "detection": _detection}


def _order(batches):
    """Sample indices in the order a pass yields them (each builder
    above stores the index in column 0 and its negation in column 1)."""
    seen = []
    for first, second in batches:
        np.testing.assert_array_equal(first, -second)  # columns stay aligned
        seen.extend(first.ravel().tolist())
    return seen


def _frozen(dataset, batch_size, seed):
    """The closure this PR removed from every caller outside bench/."""
    return lambda: dataset.batches(batch_size, rng=np.random.default_rng(seed))


class TestEpochOrder:
    @pytest.mark.parametrize("kind", sorted(DATASETS))
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        batch_size=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(1, 6),
    )
    def test_every_epoch_is_a_fresh_permutation(self, kind, n, batch_size, seed, epochs):
        dataset = DATASETS[kind](n)
        first, again = dataset.epochs(batch_size, seed), dataset.epochs(batch_size, seed)
        orders = []
        for _ in range(epochs):
            batches = list(first())
            sizes = [len(batch[0]) for batch in batches]
            assert sizes[:-1] == [batch_size] * (len(sizes) - 1)
            assert len(batches) == dataset.num_batches(batch_size)
            order = _order(batches)
            assert sorted(order) == list(range(n))
            assert order == _order(again())  # pure in (seed, epoch)
            orders.append(order)
        if n >= 16:
            assert all(a != b for a, b in zip(orders, orders[1:]))

    @pytest.mark.parametrize("kind", sorted(DATASETS))
    def test_no_seed_is_the_identity_order_every_epoch(self, kind):
        next_epoch = DATASETS[kind](37).epochs(8)
        for _ in range(3):
            assert _order(next_epoch()) == list(range(37))

    def test_epoch_k_is_reached_by_discarding_k_calls(self):
        dataset = _array(50)
        straight = dataset.epochs(8, seed=3)
        orders = [_order(straight()) for _ in range(4)]
        resumed = dataset.epochs(8, seed=3)
        for _ in range(2):
            resumed()  # lazy: nothing is shuffled or sliced
        assert [_order(resumed()) for _ in range(2)] == orders[2:]

    def test_bad_batch_size_is_named(self):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            next(_array(4).epochs(0)())

    def test_teacher_forcing_adapts_epochs(self):
        tokens = np.arange(12).reshape(3, 4)
        corpus = TranslationDataset(src=tokens, tgt=tokens + 100, src_vocab=1, tgt_vocab=1)
        ((src, tgt_in), tgt_out), = teacher_forcing(corpus.epochs(3))()
        np.testing.assert_array_equal(src, tokens)
        np.testing.assert_array_equal(tgt_in, tokens[:, :-1] + 100)
        np.testing.assert_array_equal(tgt_out, tokens[:, 1:] + 100)


class TestBenchmarkedDataPath:
    """``bench/workloads.py`` is frozen between [benchmark] PRs and still
    spells the order out by hand; what it gets must not move."""

    @staticmethod
    def _parent_batches(columns, batch_size, rng):
        order = np.arange(len(columns[0]))
        rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            yield tuple(column[idx] for column in columns)

    def _assert_same(self, got, want):
        got, want = list(got), list(want)
        assert len(got) == len(want)
        for batch, expected in zip(got, want):
            assert isinstance(batch, tuple) and len(batch) == len(expected)
            for a, b in zip(batch, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_array_batches_rng(self):
        split = synthetic_images(10, 70, 8, image_size=8, seed=0)
        data = split.train
        self._assert_same(
            data.batches(32, rng=np.random.default_rng(2)),
            self._parent_batches(data.columns, 32, np.random.default_rng(2)),
        )
        in_order = list(data.batches(32, shuffle=False))
        assert np.array_equal(np.concatenate([x for x, _ in in_order]), data.inputs)

    def test_translation_batches_seed(self):
        ids = np.arange(45 * 6).reshape(45, 6)
        corpus = TranslationDataset(src=ids, tgt=ids[:, ::-1].copy(), src_vocab=9, tgt_vocab=9)
        self._assert_same(
            corpus.batches(16, shuffle=True, seed=5),
            self._parent_batches(corpus.columns, 16, np.random.default_rng(5)),
        )
        # No seed, no rng: the parent's ``seed=0`` default.
        self._assert_same(
            corpus.batches(16),
            self._parent_batches(corpus.columns, 16, np.random.default_rng(0)),
        )


def _bp_coverage(next_epoch, schedule, epochs, n):
    """Which sample indices met a true gradient over ``epochs`` epochs."""
    covered = np.zeros(n, dtype=bool)
    for epoch in range(epochs):
        for index, (ids, _) in enumerate(next_epoch()):
            if schedule.phase_for(epoch, index) is not Phase.GP:
                covered[ids] = True
    return covered


RATIOS = [ratio for _, ratio in PAPER_RATIO_LADDER] + [PAPER_FINAL_RATIO]


class TestEverySampleMeetsATrueGradient:
    """§3.1's parity argument needs every sample to keep meeting true
    gradients.  ``phase_for`` is positional, so a frozen order pins the
    same samples to Phase GP for the whole run."""

    N, BATCH = 256, 32

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coverage(self, ratio, seed):
        schedule = HeuristicSchedule(warmup_epochs=0, ladder=(), final_ratio=ratio)
        dataset = _array(self.N)
        per_epoch = dataset.num_batches(self.BATCH)
        bp_share = 1.0 - sum(
            schedule.phase_for(0, i) is Phase.GP for i in range(per_epoch)
        ) / per_epoch
        pinned = round(bp_share * self.N)  # what one epoch's BP batches hold

        frozen = _bp_coverage(_frozen(dataset, self.BATCH, seed), schedule, 12, self.N)
        fresh = _bp_coverage(dataset.epochs(self.BATCH, seed), schedule, 12, self.N)
        # The bug, pinned: twelve epochs of a frozen order reach exactly
        # the samples the first epoch's BP batches held.
        assert frozen.sum() == pinned < self.N
        assert fresh.sum() > frozen.sum()

        # Under independent shuffles a sample misses every BP batch of E
        # epochs with probability (1 - bp_share)**E: 20 % at 4:1 over 12
        # epochs, so "all 256 within 12" cannot hold for the ladder's top
        # rungs.  Run until fewer than 1e-3 samples are expected unseen.
        horizon = math.ceil(math.log(1e-3 / self.N) / math.log(1.0 - bp_share))
        assert _bp_coverage(
            dataset.epochs(self.BATCH, seed), schedule, horizon, self.N
        ).all()
        assert (
            _bp_coverage(_frozen(dataset, self.BATCH, seed), schedule, horizon, self.N).sum()
            == pinned
        )


class TestConvergence:
    """The engine-level consequence on VGG13-mini (warm-up 2, then 1:1):
    same seed, same everything, only the owner of the order differs."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reshuffled_fit_ends_lower_than_frozen(self, seed):
        split = synthetic_images(10, 128, 32, image_size=16, seed=seed)

        def final_train_loss(train_batches):
            engine = adagp_engine(
                build_mini("VGG13", 10, rng=np.random.default_rng(seed + 1)),
                CrossEntropyLoss(),
                lr=0.02,
                metric_fn=accuracy,
                schedule=HeuristicSchedule(warmup_epochs=2, ladder=()),
                backend="fused",
            )
            return engine.fit(train_batches, split.val.epochs(32), 10).train_loss[-1]

        frozen = final_train_loss(_frozen(split.train, 32, seed + 2))
        fresh = final_train_loss(split.train.epochs(32, seed + 2))
        assert fresh < frozen
