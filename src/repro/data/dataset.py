"""Dataset containers, batch iteration and the epoch-order policy (DESIGN.md §5)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator, Optional

import numpy as np

Batches = Iterator[tuple[np.ndarray, ...]]


class BatchedDataset:
    """Batch iteration over a dataset's parallel ``columns`` (the arrays
    a subclass names; a batch is all of them at the same indices).  The
    one body that turns an index order into mini-batches, and the one
    place a seed becomes a permutation."""

    columns: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    def batches(
        self,
        batch_size: int,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> Batches:
        """Yield one pass of mini-batches, shuffled by ``rng``.  A closure
        handing this a *fresh* generator per call replays one permutation
        every epoch: give ``fit`` :meth:`epochs` (lint ``epoch-order``)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        order = np.arange(len(self))
        if shuffle:
            rng = rng if rng is not None else np.random.default_rng(0)
            rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            yield tuple(column[idx] for column in self.columns)

    def epochs(
        self, batch_size: int, seed: Optional[int] = None
    ) -> Callable[[], Batches]:
        """The zero-argument callable ``TrainingEngine.fit`` takes: call
        ``e`` yields epoch ``e``'s batches in an order that is a pure
        function of ``(seed, e)`` — deterministic in ``seed``, different
        every epoch, and a resumed fit reaches epoch ``k`` by discarding
        ``k`` (lazy) calls.  ``seed=None`` is validation's in-order pass."""
        calls = count()

        def next_epoch() -> Batches:
            epoch = next(calls)
            rng = None if seed is None else np.random.default_rng([epoch, seed])
            return self.batches(batch_size, seed is not None, rng)

        return next_epoch

    def num_batches(self, batch_size: int) -> int:
        return -(-len(self) // batch_size)


@dataclass
class ArrayDataset(BatchedDataset):
    """A dataset of parallel input/target arrays."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.targets):
            raise ValueError(
                f"inputs ({len(self.inputs)}) and targets ({len(self.targets)}) "
                "must have the same length"
            )

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs, self.targets


@dataclass
class Split:
    """A train/validation pair of datasets."""

    train: ArrayDataset
    val: ArrayDataset
