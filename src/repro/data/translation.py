"""Synthetic translation corpus standing in for Multi30k (paper §6.4).

The "language pair" is a deterministic rule: the target sentence is the
reversed source with every token shifted by a fixed offset in a
disjoint target vocabulary, framed by BOS/EOS.  A seq2seq Transformer
has to learn token mapping + reordering, exercising the same encoder-
decoder training path as a real translation task while remaining
learnable offline at mini scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .dataset import Batches, BatchedDataset

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
NUM_SPECIAL = 3
#: Shortest sentence, and the offset the language rule adds to every
#: content token.
MIN_LEN = 3
SHIFT = 7


@dataclass
class TranslationDataset(BatchedDataset):
    """Parallel corpus of padded id sequences."""

    src: np.ndarray  # (count, src_len) int64, 0-padded
    tgt: np.ndarray  # (count, tgt_len) int64, with BOS/EOS, 0-padded
    src_vocab: int
    tgt_vocab: int

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.src, self.tgt

    def batches(
        self, batch_size, shuffle=True, rng=None, seed: Optional[int] = None
    ) -> Batches:
        # ``seed=`` cannot say "reshuffle next epoch"; it survives only for
        # bench/workloads.py, frozen until the [benchmark] PR that re-records
        # the loss bands under ``epochs()`` and deletes this override.
        if seed is not None:
            rng = np.random.default_rng(seed)
        return super().batches(batch_size, shuffle, rng)


def teacher_forcing(epochs: Callable[[], Batches]) -> Callable[[], Iterator[tuple]]:
    """Adapt what :meth:`TranslationDataset.epochs` returns to the seq2seq
    trainer's ``((src, tgt_in), tgt_out)`` batches: the decoder reads
    ``tgt`` without its last token and is scored against it shifted."""
    return lambda: (((src, tgt[:, :-1]), tgt[:, 1:]) for src, tgt in epochs())


def _translate(sentence: np.ndarray, shift: int, content_vocab: int) -> np.ndarray:
    """Apply the synthetic language rule: reverse + shifted vocabulary."""
    content = sentence[sentence >= NUM_SPECIAL] - NUM_SPECIAL
    mapped = (content + shift) % content_vocab + NUM_SPECIAL
    return mapped[::-1]


def synthetic_translation(
    num_sentences: int = 256,
    content_vocab: int = 20,
    max_len: int = 8,
    seed: int = 0,
) -> TranslationDataset:
    """Generate a parallel corpus under the reverse+shift rule, with
    sentences of :data:`MIN_LEN` to ``max_len`` tokens."""
    if max_len < MIN_LEN:
        raise ValueError(f"max_len must be >= {MIN_LEN}")
    rng = np.random.default_rng(seed)
    src_len = max_len
    tgt_len = max_len + 2  # BOS + tokens + EOS
    src = np.zeros((num_sentences, src_len), dtype=np.int64)
    tgt = np.zeros((num_sentences, tgt_len), dtype=np.int64)
    for i in range(num_sentences):
        length = int(rng.integers(MIN_LEN, max_len + 1))
        tokens = rng.integers(NUM_SPECIAL, NUM_SPECIAL + content_vocab, size=length)
        translated = _translate(tokens, SHIFT, content_vocab)
        src[i, :length] = tokens
        tgt[i, 0] = BOS_ID
        tgt[i, 1 : 1 + length] = translated
        tgt[i, 1 + length] = EOS_ID
    vocab = NUM_SPECIAL + content_vocab
    return TranslationDataset(src=src, tgt=tgt, src_vocab=vocab, tgt_vocab=vocab)


def reference_translation(src_row: np.ndarray, shift: int, content_vocab: int) -> list[int]:
    """Ground-truth target tokens (no specials) for a padded source row."""
    return list(_translate(src_row[src_row != PAD_ID], shift, content_vocab))
