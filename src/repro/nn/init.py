"""Weight initializers and the default per-layer rng policy.

All initializers take an explicit ``rng`` so every model build is
reproducible; :mod:`repro.models` threads a seeded generator through.

Layers constructed *without* an rng draw one from a module-level
:class:`numpy.random.SeedSequence` via :func:`layer_rng`: each layer
gets its own spawned child stream, so two same-shape layers built
without an rng never initialize bit-identically (previously every such
layer used a fresh ``default_rng(0)``, which made e.g. the q/k/v/out
projections of ``MultiHeadAttention`` exact copies of each other), while
construction order alone still fully determines the weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_layer_seed_sequence = np.random.SeedSequence(0)


def layer_rng(rng: Optional[np.random.Generator] = None) -> np.random.Generator:
    """Return ``rng`` unchanged, or a fresh per-layer default generator.

    The default path spawns a child of the module-level seed sequence,
    so every call yields an independent, deterministic stream.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(_layer_seed_sequence.spawn(1)[0])


def reset_layer_rng(seed: int = 0) -> None:
    """Restart the module-level seed sequence (reproducible test setups)."""
    global _layer_seed_sequence
    _layer_seed_sequence = np.random.SeedSequence(seed)


def kaiming_uniform(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He/Kaiming uniform initialization, the default for conv/linear."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
