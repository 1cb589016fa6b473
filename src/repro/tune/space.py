"""Search-space primitives for schedule search.

A :class:`SearchSpace` maps parameter names to :class:`Domain` objects;
it can enumerate the full cartesian grid (finite domains only) or draw
deterministic random samples.  Randomness follows the repo's
``SeedSequence`` spawning pattern (see :func:`repro.nn.init.layer_rng`):
one root sequence per search, one spawned child stream per trial, so
trials never share a random stream no matter how many run, in what
order, or in which process.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np


class Domain:
    """One searchable parameter: a value set or distribution."""

    def sample(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def values(self) -> tuple:
        """Finite value set for grid enumeration."""
        raise TypeError(
            f"{type(self).__name__} is continuous and cannot be grid-"
            "enumerated; use RandomSearch or discretize it with Grid(...)"
        )


def _freeze(value: Any) -> Any:
    """Lists become tuples so sampled configs hash/compare like literals."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True, init=False)
class Grid(Domain):
    """An explicit finite value set, enumerated in order by the grid and
    sampled uniformly by random search."""

    options: tuple

    def __init__(self, *options: Any) -> None:
        if len(options) == 1 and isinstance(options[0], (list, tuple)):
            options = tuple(options[0])
        if not options:
            raise ValueError("Grid needs at least one option")
        object.__setattr__(self, "options", tuple(_freeze(o) for o in options))

    def sample(self, rng: np.random.Generator) -> Any:
        return self.options[int(rng.integers(len(self.options)))]

    def values(self) -> tuple:
        return self.options


class Choice(Grid):
    """Alias of :class:`Grid` kept for intent: categorical options that a
    random search picks among (and a grid still enumerates)."""


@dataclass(frozen=True, init=False)
class Fixed(Domain):
    """A constant passed through unchanged — what bare (non-``Domain``)
    values in a :class:`SearchSpace` wrap into.  Unlike ``Grid(value)``,
    a fixed sequence stays one value: ``Fixed((9, 1))`` is the ratio
    ``(9, 1)``, never a two-option grid over ``9`` and ``1``."""

    value: object

    def __init__(self, value: Any) -> None:
        object.__setattr__(self, "value", _freeze(value))

    def sample(self, rng: np.random.Generator) -> Any:
        return self.value

    def values(self) -> tuple:
        return (self.value,)


@dataclass(frozen=True)
class Uniform(Domain):
    """Continuous uniform on ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"need low < high, got [{self.low}, {self.high})")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class LogUniform(Domain):
    """Log-uniform on ``[low, high)`` — for scale-free knobs like MAPE
    thresholds or learning rates."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low < self.high:
            raise ValueError(
                f"need 0 < low < high, got [{self.low}, {self.high})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(
            math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        )


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators spawned from one root sequence.

    The per-trial analogue of :func:`repro.nn.init.layer_rng`: same seed
    and index always yield the same stream, and distinct indices never
    collide (SeedSequence spawning guarantees independence, unlike
    ``seed + i`` arithmetic).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]


def seed_for_trial(seed: int, trial_id: str) -> int:
    """JSON-safe training seed as a pure function of (root seed, trial id).

    The id is hashed (SHA-256, first 16 bytes) into a 4-word
    ``SeedSequence`` spawn key, so a trial's seed depends on nothing but
    the search's root seed and the trial's own identity — not its
    position in the batch, not how many trials were drawn around it,
    and not how many pool workers execute them.  That independence is
    what lets a journaled search resumed under a different ``workers=``
    count reproduce bit-identical trial results.
    """
    digest = hashlib.sha256(trial_id.encode("utf-8")).digest()
    spawn_key = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )
    child = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return int(child.generate_state(1, np.uint32)[0])


class SearchSpace:
    """Named parameter domains; non-``Domain`` values (scalars, tuples,
    ladders) are fixed constants passed through to every configuration —
    searchable sets must be explicit ``Grid``/``Choice`` domains.

    Example::

        space = SearchSpace({
            "kind": "adaptive",                       # fixed
            "final_ratio": (9, 1),                    # fixed (stays a pair)
            "threshold_scale": LogUniform(1.0, 30.0), # continuous
            "warmup_epochs": Grid(4, 6),              # finite
        })
    """

    def __init__(self, params: Mapping[str, Any]) -> None:
        if not params:
            raise ValueError("search space needs at least one parameter")
        self.params: dict[str, Domain] = {
            name: domain if isinstance(domain, Domain) else Fixed(domain)
            for name, domain in params.items()
        }

    def __len__(self) -> int:
        return len(self.params)

    @property
    def names(self) -> list[str]:
        return list(self.params)

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """One configuration; deterministic for a given generator state."""
        return {name: domain.sample(rng) for name, domain in self.params.items()}

    def sample_many(self, seed: int, count: int) -> list[dict[str, Any]]:
        """``count`` configurations from per-trial spawned streams.

        Each configuration is drawn from its *own* child stream, so
        configuration ``i`` is identical whether 5 or 500 trials are
        requested — prefixes of a larger search are free.
        """
        return [self.sample(rng) for rng in spawn_rngs(seed, count)]

    def grid_size(self) -> int:
        return math.prod(len(d.values()) for d in self.params.values())

    def grid(self) -> Iterator[dict[str, Any]]:
        """Every configuration of the cartesian grid, in deterministic
        (first parameter slowest) order.  Raises TypeError if any domain
        is continuous."""
        names = list(self.params)
        value_sets: Sequence[tuple] = [self.params[n].values() for n in names]
        for combo in itertools.product(*value_sets):
            yield dict(zip(names, combo))
